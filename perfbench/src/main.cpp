// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]
//
// Runs one workload single-threaded in a closed loop for S seconds, prints a
// human-readable summary, then one JSON result line (the last line of
// stdout): end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.

#include <cstdlib>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload snapshot_torus|topk_flows|xfsm_policer "
               "--seed N --seconds S --trace 0|1 [--spans-out PATH]\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      const auto w = perfbench::parse_workload(v);
      if (!w) return usage();
      opt.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      if (!parse_u64(v, opt.seed)) return usage();
      have_seed = true;
    } else if (a == "--seconds") {
      if (!parse_u64(v, n) || n == 0 || n > 600) return usage();
      opt.seconds = double(n);
    } else if (a == "--trace") {
      if (!parse_u64(v, n) || n > 1) return usage();
      opt.trace = n == 1;
    } else if (a == "--spans-out") {
      opt.spans_out = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed) return usage();

  const perfbench::RunReport rep = perfbench::run_benchmark(opt);
  for (const std::string& l : rep.lines) std::cout << l << '\n';
  std::cout << perfbench::result_json(rep.correct, rep.attempted, rep.failed, rep.metrics)
            << std::endl;
  return 0;
}
