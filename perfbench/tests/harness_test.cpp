// The benchmark's own tests: the tail-percentile rule, host-speed scaling,
// op self-time arithmetic (stage time + sim.self_s == op span), seed plumbing
// of the input plans, and the traced run's accounting on every workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_samples(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

// ---------------------------------------------------------------------------
// Tail rule: the highest ladder percentile with >= 10 samples beyond it.
// ---------------------------------------------------------------------------

TEST(TailRule, PicksHighestRungWithTenBeyond) {
  const Tail t = tail_of(iota_samples(1000));
  EXPECT_EQ(t.pct, 99.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.value, 990.0);
}

TEST(TailRule, DropsARungWhenOneSampleShort) {
  const Tail t = tail_of(iota_samples(999));  // p99 would leave only 9 beyond
  EXPECT_EQ(t.pct, 95.0);
  EXPECT_EQ(t.beyond, 49u);
}

TEST(TailRule, ShortSamplesFallBackToTheMedian) {
  const Tail t = tail_of(iota_samples(19));
  EXPECT_EQ(t.pct, 50.0);
  EXPECT_EQ(t.beyond, 9u);
  EXPECT_EQ(tail_of({}).beyond, 0u);
}

TEST(TailRule, EveryReportedRungIsTheHighestQualifying) {
  const double ladder[] = {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (std::size_t n = 20; n <= 20000; n = n * 5 / 4 + 1) {
    const Tail t = tail_of(iota_samples(n));
    EXPECT_GE(t.beyond, kTailMinBeyond) << n;
    for (const double p : ladder) {
      if (p <= t.pct) break;
      EXPECT_LT(samples_beyond(n, p), kTailMinBeyond) << n << " p" << p;
    }
  }
}

TEST(TailRule, OrderOfSamplesDoesNotMatter) {
  std::vector<double> v = iota_samples(500);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail_of(v).value, 475.0);  // p95 of 1..500
  EXPECT_EQ(median_of(v), 250.0);
}

TEST(Quartiles, NearestRankOfAnUnsortedSample) {
  EXPECT_EQ(percentile_of({}, 75.0), 0.0);
  EXPECT_EQ(percentile_of({4.0, 1.0, 3.0, 2.0}, 75.0), 3.0);
  EXPECT_EQ(percentile_of({4.0, 1.0, 3.0, 2.0}, 25.0), 1.0);
}

// ---------------------------------------------------------------------------
// Host-speed scaling: op times at the reference speed.
// ---------------------------------------------------------------------------

TEST(HostSpeed, IsTheReferenceOverTheMedianProbe) {
  EXPECT_EQ(host_speed({}), 1.0);
  EXPECT_EQ(host_speed({kCalibRefNs}), 1.0);
  // A window whose median probe took twice the reference ran at half speed.
  EXPECT_EQ(host_speed({kCalibRefNs, 2 * kCalibRefNs, 2 * kCalibRefNs, 9 * kCalibRefNs}),
            0.5);
}

TEST(HostSpeed, ScaledReplaysOfAnOpAgreeAcrossHostSpeeds) {
  // Op 0 never ran; op 1 costs 4 ms at reference speed, op 2 costs 6 ms.  A
  // replay at half speed takes twice as long and scales back to the same.
  const std::vector<double> speed = {1.0, 0.5, 0.5, 0.25};
  const std::vector<std::vector<double>> replays = {
      {}, {4.0, 8.0, 8.0, 16.0}, {6.0, 12.0, 12.0, 24.0}};
  EXPECT_EQ(op_times(replays, speed), (std::vector<double>{4.0, 6.0}));
}

TEST(HostSpeed, OneDisturbedReplayDoesNotMoveTheMedian) {
  // The probe missed a burst that hit replay 1 only: its scaled time is off,
  // the median over replays is not.
  const std::vector<double> speed = {1.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(op_times({{4.0, 9.0, 4.0, 4.1, 3.9}}, speed), (std::vector<double>{4.0}));
}

TEST(HostSpeed, ProbeTakesMeasurableTime) {
  const std::uint64_t ns = calibrate_ns();
  EXPECT_GT(ns, 0u);
  EXPECT_LT(ns, std::uint64_t{1'000'000'000});
}

// ---------------------------------------------------------------------------
// Self time.
// ---------------------------------------------------------------------------

TEST(SelfTime, StagePlusSelfIsTheSpanExactly) {
  const OpSplit s = split_op(1'000'003, 200'000, 550'001);
  EXPECT_EQ(s.stage_ns, 350'001u);
  EXPECT_EQ(s.self_ns, 650'002);
  EXPECT_EQ(static_cast<std::int64_t>(s.stage_ns) + s.self_ns,
            static_cast<std::int64_t>(s.span_ns));
}

TEST(SelfTime, OverlappingStagesShowAsNegativeSelf) {
  const OpSplit s = split_op(100, 0, 150);
  EXPECT_EQ(s.self_ns, -50);
}

TEST(SelfTime, StageTotalSumsEveryStage) {
  ss::util::prof::StageProfile p;
  p.at(ss::util::prof::Stage::kFlowDispatch).record(100);
  p.at(ss::util::prof::Stage::kFlowDispatch).record(300);
  p.at(ss::util::prof::Stage::kGroupExec).record(50);
  p.at(ss::util::prof::Stage::kStateStore).record(7);
  EXPECT_EQ(stage_ns_total(p), 457u);
  EXPECT_EQ(stage_percentile_ns(p.at(ss::util::prof::Stage::kGroupExec), 50.0), 50.0);
  EXPECT_EQ(stage_percentile_ns(p.at(ss::util::prof::Stage::kStateLookup), 50.0), 0.0);
}

TEST(SelfTime, SpansNestUnderTheInnermostOpenSpan) {
  SpanLog log(true);
  const auto root = log.open("episode");
  const auto child = log.open("setup");
  const auto grandchild = log.open("ofp.install");
  log.close(grandchild);
  log.close(child);
  Span op;
  op.name = "op";
  op.start_ns = 10;
  op.end_ns = 30;
  op.op = 1;
  log.add(op);  // a pre-timed op span keeps its exact clock readings
  log.close(root);
  const auto& s = log.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[std::size_t(root)].parent, -1);
  EXPECT_EQ(s[std::size_t(child)].parent, root);
  EXPECT_EQ(s[std::size_t(grandchild)].parent, child);
  EXPECT_EQ(s[3].parent, root);
  EXPECT_EQ(s[3].dur_ns(), 20u);
  for (const Span& x : s) EXPECT_GE(x.end_ns, x.start_ns) << x.name;
}

TEST(SelfTime, DisabledLogRecordsNothing) {
  SpanLog log(false);
  EXPECT_EQ(log.open("op"), -1);
  log.add(Span{});
  EXPECT_TRUE(log.spans().empty());
}

// ---------------------------------------------------------------------------
// Seed plumbing: the plans are pure functions of the seed.
// ---------------------------------------------------------------------------

bool same_flows(const std::vector<ss::sim::FlowSpec>& a,
                const std::vector<ss::sim::FlowSpec>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const ss::sim::FlowSpec& x, const ss::sim::FlowSpec& y) {
                      return x.fkey == y.fkey && x.packets == y.packets &&
                             x.bytes == y.bytes;
                    });
}

TEST(SeedPlumbing, SnapshotPlanFollowsTheSeed) {
  const SnapshotPlan a = make_snapshot_plan(7), b = make_snapshot_plan(7);
  const SnapshotPlan c = make_snapshot_plan(8);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_NE(a.ops, c.ops);
  std::size_t failing = 0;
  for (const SnapOp& o : a.ops) failing += !o.down.empty();
  EXPECT_GT(failing, 0u);             // a seeded share runs with links down
  EXPECT_LT(failing, a.ops.size());   // ... and the rest on the full torus
}

TEST(SeedPlumbing, FlowPlansFollowTheSeed) {
  for (auto make : {&make_topk_plan, &make_xfsm_plan}) {
    const FlowPlan a = make(7), b = make(7), c = make(8);
    EXPECT_TRUE(same_flows(a.flows, b.flows));
    EXPECT_FALSE(same_flows(a.flows, c.flows));
    EXPECT_EQ(a.chunks.size(), b.chunks.size());
  }
  // The two flow workloads draw from different streams of one seed.
  EXPECT_FALSE(same_flows(make_topk_plan(7).flows, make_xfsm_plan(7).flows));
}

TEST(SeedPlumbing, EveryPlanHasEnoughOpsForAP90Tail) {
  // The tail is taken over the plan's distinct timed ops (the warm-up op 0
  // excluded); p90 needs at least 100 of them.
  for (const std::uint64_t seed : {1u, 7u, 97u, 98u}) {
    EXPECT_GE(make_snapshot_plan(seed).ops.size() - 1, 100u) << seed;
    EXPECT_GE(make_topk_plan(seed).chunks.size() - 1, 100u) << seed;
    EXPECT_GE(make_xfsm_plan(seed).chunks.size() - 1, 100u) << seed;
    EXPECT_EQ(tail_of(std::vector<double>(make_xfsm_plan(seed).chunks.size() - 1, 1.0)).pct,
              90.0)
        << seed;
  }
}

std::map<std::uint32_t, std::uint64_t> packets_by_key(
    const std::vector<std::vector<ss::sim::FlowSpec>>& chunks) {
  std::map<std::uint32_t, std::uint64_t> m;
  for (const auto& c : chunks)
    for (const auto& f : c) m[f.fkey] += f.packets;
  return m;
}

TEST(SeedPlumbing, ChunksInjectExactlyThePlannedFlows) {
  const FlowPlan topk = make_topk_plan(3);
  std::map<std::uint32_t, std::uint64_t> want;
  for (const auto& f : topk.flows) want[f.fkey] = f.packets;
  EXPECT_EQ(packets_by_key(topk.chunks), want);
  auto packets = [](const std::vector<ss::sim::FlowSpec>& c) {
    std::uint64_t n = 0;
    for (const auto& f : c) n += f.packets;
    return n;
  };
  for (std::size_t i = 1; i + 1 < topk.chunks.size(); ++i)  // split chunks are exact
    EXPECT_EQ(packets(topk.chunks[i]), packets(topk.chunks[0])) << "chunk " << i;

  // Policer chunks keep every flow whole, in key order.
  const FlowPlan xf = make_xfsm_plan(3);
  std::vector<ss::sim::FlowSpec> flat;
  for (const auto& c : xf.chunks) flat.insert(flat.end(), c.begin(), c.end());
  EXPECT_TRUE(same_flows(flat, xf.flows));
}

// ---------------------------------------------------------------------------
// The traced run accounts for every op's span on every workload, and the
// untraced run reports exactly the end-to-end metrics.
// ---------------------------------------------------------------------------

std::map<std::string, double> by_name(const std::vector<Metric>& ms) {
  std::map<std::string, double> m;
  for (const Metric& x : ms) m[x.name] = x.value;
  return m;
}

TEST(TracedRun, StagesPlusSelfAccountForTheOpSpan) {
  for (const Workload w :
       {Workload::kSnapshotTorus, Workload::kTopkFlows, Workload::kXfsmPolicer}) {
    RunOptions opt;
    opt.workload = w;
    opt.seed = 5;
    opt.seconds = 1;
    opt.trace = true;
    const RunReport rep = run_benchmark(opt);
    ASSERT_TRUE(rep.correct) << workload_name(w);
    EXPECT_EQ(rep.failed, 0u);
    const auto m = by_name(rep.metrics);
    const double span = m.at("op_span_s");
    ASSERT_GT(span, 0.0);
    EXPECT_NEAR(m.at("ofp.stage_s") + m.at("sim.self_s"), span, span * 1e-9)
        << workload_name(w);
    EXPECT_NEAR(m.at("ofp.dispatch_s") + m.at("ofp.group_s") +
                    m.at("ofp.state_lookup_s") + m.at("ofp.state_store_s"),
                m.at("ofp.stage_s"), span * 1e-9)
        << workload_name(w);
    EXPECT_GT(m.at("sim.self_s"), 0.0);
    EXPECT_GT(m.at("ofp.dispatch_ops"), 0.0);
    EXPECT_EQ(m.at("failed_frac"), 0.0);
  }
}

TEST(UntracedRun, ReportsTheEndToEndMetrics) {
  RunOptions opt;
  opt.workload = Workload::kXfsmPolicer;
  opt.seed = 9;
  opt.seconds = 1;
  const RunReport rep = run_benchmark(opt);
  ASSERT_TRUE(rep.correct);
  std::vector<std::string> names;
  for (const Metric& m : rep.metrics) {
    names.push_back(m.name);
    EXPECT_GT(m.value, 0.0) << m.name;
  }
  EXPECT_EQ(names, (std::vector<std::string>{"setup_s", "ops_per_s", "op_p50_ms",
                                             "op_tail_ms", "events_per_s",
                                             "peak_rss_mb"}));
}

}  // namespace
}  // namespace perfbench
