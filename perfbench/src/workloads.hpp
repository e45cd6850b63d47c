#pragma once
// The benchmark's three workloads, their seeded input plans, and the closed
// loop that runs them.  See perfbench/README.md for why each workload exists
// and which per-layer metric should move which end-to-end metric.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "harness.hpp"
#include "sim/flowgen.hpp"

namespace perfbench {

enum class Workload { kSnapshotTorus, kTopkFlows, kXfsmPolicer };
std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

// ---------------------------------------------------------------------------
// Input plans: pure functions of the seed.  The simulator receives only what
// these produce.
// ---------------------------------------------------------------------------

/// One snapshot op: a traversal from `root` with `down` links taken
/// administratively down for its duration.
struct SnapOp {
  ss::graph::NodeId root = 0;
  std::vector<ss::graph::EdgeId> down;
  bool operator==(const SnapOp&) const = default;
};
struct SnapshotPlan {
  std::size_t rows = 0, cols = 0;
  std::vector<SnapOp> ops;  // one episode; op 0 is the untimed warm-up
};
SnapshotPlan make_snapshot_plan(std::uint64_t seed);

/// A flow workload cut into ops.  `flows` is the ground truth (distinct
/// keys, sorted); `chunks[i]` is op i's injection list (chunk 0 is the
/// untimed warm-up).  Concatenating the chunks injects exactly `flows`.
struct FlowPlan {
  std::vector<ss::sim::FlowSpec> flows;
  std::vector<std::vector<ss::sim::FlowSpec>> chunks;
  std::uint64_t packets = 0;
};
/// Top-K: chunks hold exactly kTopkChunkPackets packets (the last one may
/// be short); a flow may straddle two chunks.
FlowPlan make_topk_plan(std::uint64_t seed);
/// Policer: chunks hold whole flows (each flow's packets back to back, as
/// the per-flow policing bound assumes), closed once they reach
/// kXfsmChunkPackets.
FlowPlan make_xfsm_plan(std::uint64_t seed);

/// Cut `flows` into chunks of at least `target` packets; `split` lets a
/// flow straddle a chunk boundary so every chunk but the last holds
/// exactly `target`.
std::vector<std::vector<ss::sim::FlowSpec>> chunk_flows(
    const std::vector<ss::sim::FlowSpec>& flows, std::uint64_t target, bool split);

// ---------------------------------------------------------------------------
// Deterministic fingerprint of one episode: simulated counts only, so a
// change that merely speeds the simulator up must leave it identical.
// ---------------------------------------------------------------------------
struct Fingerprint {
  std::uint64_t events = 0;      // sim::Stats::events
  std::uint64_t sent = 0;        // sim::Stats::sent (every in-band message)
  std::uint64_t op_inband = 0;   // in-band messages of the ops alone
  std::uint64_t delivered = 0;   // flow packets sunk / traversals completed
  std::uint64_t dropped = 0;     // policed drops (xfsm) / dead-port drops
  std::uint64_t evictions = 0;   // state-table FIFO evictions
  std::uint64_t sweep_msgs = 0;  // in-band messages of the read-out sweep
  bool operator==(const Fingerprint&) const = default;
  std::string str() const;
};

// ---------------------------------------------------------------------------
// Running
// ---------------------------------------------------------------------------
struct RunOptions {
  Workload workload = Workload::kSnapshotTorus;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  // traced runs: JSONL span dump (empty: none)
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;     // end-to-end (untraced) or per-layer (traced)
  std::vector<std::string> lines;  // human-readable summary, printed first
};

RunReport run_benchmark(const RunOptions& opt);

}  // namespace perfbench
