#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

std::uint64_t now_ns() { return ss::util::prof::now_ns(); }

double percentile(const std::vector<double>& sorted, double p) {
  const std::size_t n = sorted.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return sorted[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * double(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  return n - rank;
}

Tail tail_of(std::vector<double> samples) {
  Tail t;
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    if (samples_beyond(samples.size(), p) >= kTailMinBeyond) {
      t.pct = p;
      break;
    }
  }
  t.beyond = samples_beyond(samples.size(), t.pct);
  t.value = percentile(samples, t.pct);
  return t;
}

double median_of(std::vector<double> samples) {
  return percentile_of(std::move(samples), 50.0);
}

double percentile_of(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return percentile(samples, p);
}

std::uint64_t calibrate_ns() {
  static volatile std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  std::map<std::uint32_t, std::vector<std::uint32_t>> m;
  std::uint32_t x = 12345;
  for (std::uint32_t k = 0; k < 1500; ++k) {
    x = x * 1664525u + 1013904223u;
    m[(x >> 8) % 500].push_back(k);
  }
  sink = sink + m.size();
  return now_ns() - t0;
}

double host_speed(std::vector<double> calib_ns) {
  const double med = median_of(std::move(calib_ns));
  return med > 0 ? kCalibRefNs / med : 1.0;
}

std::vector<double> op_times(const std::vector<std::vector<double>>& replays,
                             const std::vector<double>& speed) {
  std::vector<double> out;
  for (const std::vector<double>& r : replays) {
    if (r.empty()) continue;
    std::vector<double> scaled;
    for (std::size_t k = 0; k < r.size(); ++k)
      scaled.push_back(r[k] * (k < speed.size() ? speed[k] : 1.0));
    out.push_back(median_of(std::move(scaled)));
  }
  return out;
}

double stage_percentile_ns(const ss::util::prof::StageCounters& c, double p) {
  if (c.ops == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(std::ceil(p / 100.0 * double(c.ops)));
  rank = std::clamp<std::uint64_t>(rank, 1, c.ops);
  std::uint64_t seen = 0;
  for (const auto& [bucket, count] : c.ns_buckets) {
    seen += count;
    if (seen >= rank) return double(ss::util::prof::prof_bucket_lo(bucket));
  }
  return double(c.ns_max);
}

std::uint64_t stage_ns_total(const ss::util::prof::StageProfile& p) {
  std::uint64_t ns = 0;
  for (const auto& s : p.stages) ns += s.ns_sum;
  return ns;
}

OpSplit split_op(std::uint64_t span_ns, std::uint64_t stage_before,
                 std::uint64_t stage_after) {
  OpSplit s;
  s.span_ns = span_ns;
  s.stage_ns = stage_after - stage_before;
  s.self_ns = static_cast<std::int64_t>(span_ns) - static_cast<std::int64_t>(s.stage_ns);
  return s;
}

std::int64_t SpanLog::open(const std::string& name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int64_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void SpanLog::close(std::int64_t id) {
  if (id < 0) return;
  spans_[std::size_t(id)].end_ns = now_ns();
  // Spans close innermost-first (Scope is RAII), so `id` is the top.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void SpanLog::add(Span s) {
  if (!enabled_) return;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op;
    if (s.op >= 0 && s.name == "op")
      out << ",\"stage_ns\":" << s.stage_ns << ",\"self_ns\":" << s.self_ns;
    out << "}\n";
  }
  return static_cast<bool>(out);
}

std::uint64_t Scope::close() {
  if (open_) {
    dur_ = now_ns() - t0_;
    log_.close(id_);
    open_ = false;
  }
  return dur_;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // %.17g: every digit as measured; non-finite values (never expected)
    // degrade to 0 so the line stays valid JSON.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
