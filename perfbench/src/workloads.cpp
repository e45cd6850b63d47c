#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/eth_types.hpp"
#include "core/services.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "obs/topk.hpp"
#include "ofp/space.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "xfsm/machines.hpp"
#include "xfsm/service.hpp"

namespace perfbench {
namespace {

using ss::graph::EdgeId;
using ss::graph::NodeId;
using ss::sim::FlowSpec;
namespace prof = ss::util::prof;

// ---------------------------------------------------------------------------
// Sizing.  One episode = set-up + the plan's ops (+ the read-out for the flow
// workloads); a run replays whole episodes until its time is up.  Episodes
// take 0.3-0.7 s, so a 40 s run sets up and times every op 60-120 times and
// overruns its time by at most one episode.  Each episode holds 120-170
// distinct ops (1.5-5 ms each), so the tail over their per-op times is the
// p90 with 12-17 ops beyond it.
// ---------------------------------------------------------------------------
constexpr std::size_t kMinEpisodes = 3;

constexpr std::size_t kTorusSide = 18;       // snapshot: 324 switches, 648 links
constexpr std::size_t kSnapOps = 120;        // timed traversals per episode
constexpr double kSnapFailShare = 0.25;      // traversals run with links down
constexpr std::size_t kSnapLinksDown = 3;

constexpr std::size_t kTopkSide = 10;        // top-K: 100-switch torus
constexpr std::uint32_t kTopkSketches = 4;
constexpr std::uint32_t kTopkK = 10;
constexpr double kTopkMinRecall = 0.9;
constexpr std::uint64_t kTopkChunkPackets = 256;

constexpr std::size_t kXfsmSide = 6;         // policer: 36-switch torus
constexpr std::uint32_t kXfsmHosts = 4;
constexpr std::uint32_t kXfsmBucket = 4;
constexpr std::uint32_t kXfsmCapacity = 1024;  // per host, below its flow count
constexpr std::uint64_t kXfsmChunkPackets = 256;

constexpr std::uint64_t kTickEvery = 64;       // traced queue-depth sampling
constexpr std::size_t kTraceRing = 1u << 16;   // traced hop ring

// Seed streams: each plan draws from its own stream of the workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<NodeId> stride_hosts(std::size_t n, std::uint32_t count) {
  std::vector<NodeId> out;
  for (std::uint32_t i = 0; i < count; ++i)
    out.push_back(static_cast<NodeId>(std::uint64_t{i} * n / count));
  return out;
}

// ---------------------------------------------------------------------------
// Per-phase accumulation.  A traced run has an untraced phase (the overhead
// baseline) and a traced one; an untraced run has one untraced phase.
// ---------------------------------------------------------------------------
struct Phase {
  Phase(Workload w_, bool traced_) : w(w_), traced(traced_), spans(traced_) {}

  Workload w;
  bool traced;
  SpanLog spans;
  prof::StageProfile prof;  // armed around ops when traced
  std::uint64_t deadline_ns = 0;

  // End-to-end.
  std::vector<double> setup_s;         // one per episode
  std::vector<double> op_ms;           // one per timed op
  // Per op of the plan (indexed by op id): its host time in every replay,
  // and its simulated events (identical in every replay).
  std::vector<std::vector<double>> replay_ms;
  std::vector<std::uint64_t> replay_events;
  // Host speed (host_speed()) during each episode, from a calibrate_ns()
  // probe after every op; `calib_ns` collects the running episode's probes.
  std::vector<double> episode_speed, calib_ns;
  std::uint64_t attempted = 0, failed = 0;  // ops issued / not verified
  std::uint64_t ops = 0, op_ns = 0, op_events = 0;  // ops timed to completion
  bool errors = false;          // set-up or read-out threw, or a replay diverged
  std::vector<std::string> notes;

  // Per-layer (filled on every phase; reported from the traced one).
  std::vector<double> graph_s, construct_s, net_s, install_s, index_s;
  std::uint64_t flow_entries = 0, table_bytes_max = 0, linear_tables = 0;
  std::uint64_t outband = 0, max_wire = 0, fragments = 0, sent = 0;
  std::uint64_t stage_ns = 0;
  std::int64_t self_ns = 0;
  std::vector<double> queue_depth;
  std::uint64_t ff_exec = 0, ff_backup = 0;
  std::uint64_t state_entries = 0, evictions = 0, deliveries_logged = 0;
  std::vector<double> pump_s, sweep_s, validate_s;
  double drop_frac = 0.0, recall = 0.0;
  std::uint64_t sweep_msgs = 0;

  std::optional<Fingerprint> fingerprint;  // episode 0
  std::size_t episodes = 0;

  void fail(const std::string& why) {
    errors = true;
    if (notes.size() < 8) notes.push_back(why);
  }
};

/// Times one call into the simulator as one op: host span, simulated-event
/// delta, stage-profiler split and (traced) FAST-FAILOVER decisions of the
/// hops it put on the wire.
class OpTimer {
 public:
  OpTimer(Phase& ph, ss::sim::Network& net, std::int64_t op_id)
      : ph_(ph), net_(net), op_id_(op_id), before_(net.stats()) {
    if (ph_.traced) {
      prev_ = prof::set_thread_profile(&ph_.prof);
      stage0_ = stage_ns_total(ph_.prof);
      const auto& tr = net_.trace();
      seq0_ = tr.empty() ? 0 : tr.back().seq + 1;
    }
    t0_ = now_ns();
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

  ~OpTimer() {
    if (!stopped_ && ph_.traced) prof::set_thread_profile(prev_);
  }

  /// Stop the clock right after the call; returns the op span in ns.
  std::uint64_t stop() {
    const std::uint64_t t1 = now_ns();
    stopped_ = true;
    const std::uint64_t span = t1 - t0_;
    ph_.op_ms.push_back(double(span) * 1e-6);
    ph_.op_ns += span;
    ++ph_.ops;
    const ss::sim::Stats& after = net_.stats();
    const std::uint64_t events = after.events - before_.events;
    ph_.op_events += events;
    const auto slot = static_cast<std::size_t>(op_id_);
    if (ph_.replay_ms.size() <= slot) {
      ph_.replay_ms.resize(slot + 1);
      ph_.replay_events.resize(slot + 1);
    }
    ph_.replay_ms[slot].push_back(double(span) * 1e-6);
    ph_.replay_events[slot] = events;
    ph_.sent += after.sent - before_.sent;
    if (!ph_.traced) return span;
    prof::set_thread_profile(prev_);
    const OpSplit split = split_op(span, stage0_, stage_ns_total(ph_.prof));
    ph_.stage_ns += split.stage_ns;
    ph_.self_ns += split.self_ns;
    Span s;
    s.name = "op";
    s.start_ns = t0_;
    s.end_ns = t1;
    s.op = op_id_;
    s.stage_ns = split.stage_ns;
    s.self_ns = split.self_ns;
    ph_.spans.add(std::move(s));
    const auto& tr = net_.trace();
    for (auto it = tr.rbegin(); it != tr.rend() && it->seq >= seq0_; ++it)
      for (const ss::sim::TraceGroup& g : it->groups)
        if (g.type == ss::ofp::GroupType::kFastFailover) {
          ++ph_.ff_exec;
          if (g.bucket > 0) ++ph_.ff_backup;
        }
    return span;
  }
  const ss::sim::Stats& before() const { return before_; }

 private:
  Phase& ph_;
  ss::sim::Network& net_;
  std::int64_t op_id_;
  ss::sim::Stats before_;
  prof::StageProfile* prev_ = nullptr;
  std::uint64_t stage0_ = 0;
  std::uint64_t seq0_ = 0;
  std::uint64_t t0_ = 0;
  bool stopped_ = false;
};

/// Time `fn` as a named layer call: span when traced, seconds into `sink`.
template <class F>
void layer(Phase& ph, const char* name, std::vector<double>* sink, F&& fn) {
  Scope s(ph.spans, name);
  fn();
  const double secs = double(s.close()) * 1e-9;
  if (sink != nullptr) sink->push_back(secs);
}

/// Build every flow table's dispatch index up front (FlowTable::index() is
/// lazy) so no op pays for it, and count tables left in linear mode.
std::uint64_t build_indexes(ss::sim::Network& net) {
  std::uint64_t linear = 0;
  for (std::size_t s = 0; s < net.switch_count(); ++s)
    for (const ss::ofp::FlowTable& t : net.sw(static_cast<ss::ofp::SwitchId>(s)).tables())
      if (t.index().linear_mode()) ++linear;
  return linear;
}

/// Traced-only network instrumentation: hop ring for FAST-FAILOVER
/// decisions, tick-hook queue-depth samples.
void instrument(Phase& ph, ss::sim::Network& net) {
  if (!ph.traced) return;
  net.set_trace_capacity(kTraceRing);
  net.set_tick_hook(kTickEvery, [&ph](ss::sim::Network& n, ss::sim::Time) {
    ph.queue_depth.push_back(double(n.pending_arrivals()));
  });
}

void measure_space(Phase& ph, const ss::sim::Network& net) {
  ph.flow_entries = 0;
  ph.table_bytes_max = 0;
  for (std::size_t s = 0; s < net.switch_count(); ++s) {
    const ss::ofp::SpaceReport r =
        ss::ofp::measure_space(net.sw(static_cast<ss::ofp::SwitchId>(s)));
    ph.flow_entries += r.flow_entries;
    ph.table_bytes_max = std::max(ph.table_bytes_max, r.total_bytes());
  }
}

/// One workload episode.  Subclasses build their state in the constructor
/// (timed as set-up by the caller), then the loop calls op() for each timed
/// op and finish() once.
class Episode {
 public:
  virtual ~Episode() = default;
  /// Timed ops in a full episode (the warm-up excluded).
  virtual std::size_t op_count() const = 0;
  /// Run timed op i (1-based: op 0 is the warm-up); returns whether its
  /// output verified.
  virtual bool op(Phase& ph, std::size_t i) = 0;
  /// End-of-episode read-out and verification.  Fills the fingerprint;
  /// returns whether it verified.
  virtual bool finish(Phase& ph, Fingerprint& fp) = 0;
};

/// The set-up every workload shares — graph, service, network, rule install,
/// index build, each timed as its own layer — and the accounting of what the
/// ops put on the wires.
template <class Service>
class ServiceEpisode : public Episode {
 protected:
  template <class MakeGraph, class MakeService>
  ServiceEpisode(Phase& ph, bool first, MakeGraph make_graph, MakeService make_service) {
    layer(ph, "graph.build", &ph.graph_s, [&] { g_ = make_graph(); });
    layer(ph, "core.construct", &ph.construct_s, [&] { svc_ = make_service(g_); });
    layer(ph, "sim.build", &ph.net_s,
          [&] { net_ = std::make_unique<ss::sim::Network>(g_); });
    layer(ph, "ofp.install", &ph.install_s, [&] { svc_->install(*net_); });
    std::uint64_t linear = 0;
    layer(ph, "ofp.index_build", &ph.index_s, [&] { linear = build_indexes(*net_); });
    if (first) {
      ph.linear_tables = linear;
      measure_space(ph, *net_);
    }
    instrument(ph, *net_);
  }

  /// Fold one timed op's wire traffic (stats before/after it) into the
  /// phase (OpTimer already counted its in-band messages); returns them.
  std::uint64_t note_op(Phase& ph, const ss::sim::Stats& b, const ss::sim::Stats& a) {
    const std::uint64_t sent = a.sent - b.sent;
    op_inband_ += sent;
    ph.outband += (a.controller_msgs - b.controller_msgs) + (a.packet_outs - b.packet_outs);
    ph.max_wire = std::max(ph.max_wire, a.max_wire_bytes);
    return sent;
  }

  /// The fingerprint's network totals; also records the delivery-log size.
  Fingerprint totals(Phase& ph) const {
    ph.deliveries_logged = std::max<std::uint64_t>(
        ph.deliveries_logged,
        net_->controller_msgs().size() + net_->local_deliveries().size());
    Fingerprint fp;
    fp.events = net_->stats().events;
    fp.sent = net_->stats().sent;
    fp.op_inband = op_inband_;
    return fp;
  }

  ss::graph::Graph g_;
  std::unique_ptr<Service> svc_;
  std::unique_ptr<ss::sim::Network> net_;
  std::uint64_t op_inband_ = 0;
};

// ---------------------------------------------------------------------------
// snapshot_torus
// ---------------------------------------------------------------------------

/// Ground truth of a snapshot op, computed once per plan op.
struct SnapTruth {
  std::string canonical;       // live subgraph of root's component
  std::uint64_t messages = 0;  // reference DFS hop count
};

class SnapshotEpisode final : public ServiceEpisode<ss::core::SnapshotService> {
 public:
  SnapshotEpisode(Phase& ph, const SnapshotPlan& plan, std::vector<SnapTruth>& truth,
                  bool first)
      : ServiceEpisode(
            ph, first, [&] { return ss::graph::make_torus(plan.rows, plan.cols); },
            [](const ss::graph::Graph& g) {
              return std::make_unique<ss::core::SnapshotService>(g);
            }),
        plan_(plan),
        truth_(truth) {
    layer(ph, "warmup", nullptr, [&] {
      if (!run(ph, 0, false)) ph.fail("snapshot warm-up traversal did not verify");
    });
  }

  std::size_t op_count() const override { return plan_.ops.size() - 1; }

  bool op(Phase& ph, std::size_t i) override { return run(ph, i, true); }

  bool finish(Phase& ph, Fingerprint& fp) override {
    fp = totals(ph);
    fp.delivered = complete_;
    fp.dropped = net_->stats().dropped_down;
    return true;
  }

 private:
  /// One traversal, timed as an op when `timed`.  Links go down before and
  /// come back after the call.
  bool run(Phase& ph, std::size_t i, bool timed) {
    const SnapOp& o = plan_.ops[i];
    for (const EdgeId e : o.down) net_->set_link_up(e, false);
    SnapTruth& t = truth_[i];
    if (t.canonical.empty()) t = truth_of(o);
    ss::core::SnapshotResult res;
    if (timed) {
      OpTimer timer(ph, *net_, static_cast<std::int64_t>(i));
      res = svc_->run(*net_, o.root);
      timer.stop();
      note_op(ph, timer.before(), net_->stats());
      ph.fragments += res.fragments;
    } else {
      res = svc_->run(*net_, o.root);
    }
    for (const EdgeId e : o.down) net_->set_link_up(e, true);
    totals(ph);  // delivery-log high-water mark, before the logs are dropped
    net_->clear_logs();
    if (res.complete) ++complete_;
    return res.complete && res.canonical() == t.canonical &&
           res.stats.inband_msgs == t.messages;
  }

  SnapTruth truth_of(const SnapOp& o) const {
    const ss::graph::EdgeAlive alive = net_->alive_fn();
    const std::vector<bool> reach = ss::graph::reachable_from(g_, o.root, alive);
    std::vector<std::string> lines;
    for (EdgeId e = 0; e < g_.edge_count(); ++e) {
      if (!alive(e)) continue;
      const ss::graph::Edge& ed = g_.edge(e);
      if (!reach[ed.a.node]) continue;
      ss::graph::Endpoint lo = ed.a, hi = ed.b;
      if (hi.node < lo.node) std::swap(lo, hi);
      std::ostringstream l;
      l << lo.node << ':' << lo.port << '-' << hi.node << ':' << hi.port;
      lines.push_back(l.str());
    }
    std::sort(lines.begin(), lines.end());
    SnapTruth t;
    for (std::size_t k = 0; k < lines.size(); ++k) {
      if (k) t.canonical += '\n';
      t.canonical += lines[k];
    }
    t.messages = ss::graph::smartsouth_dfs(g_, o.root, alive).message_count();
    return t;
  }

  const SnapshotPlan& plan_;
  std::vector<SnapTruth>& truth_;
  std::uint64_t complete_ = 0;
};

// ---------------------------------------------------------------------------
// Flow workloads (topk_flows, xfsm_policer)
// ---------------------------------------------------------------------------

std::uint64_t packets_of(const std::vector<FlowSpec>& flows) {
  std::uint64_t n = 0;
  for (const FlowSpec& f : flows) n += f.packets;
  return n;
}

class TopkEpisode final : public ServiceEpisode<ss::obs::TopkService> {
 public:
  TopkEpisode(Phase& ph, const FlowPlan& plan, bool first)
      : ServiceEpisode(
            ph, first, [] { return ss::graph::make_torus(kTopkSide, kTopkSide); },
            [](const ss::graph::Graph& g) {
              ss::obs::TopkParams tp;
              tp.sketches = stride_hosts(g.node_count(), kTopkSketches);
              tp.k = kTopkK;
              return std::make_unique<ss::obs::TopkService>(g, tp);
            }),
        plan_(plan) {
    layer(ph, "warmup", nullptr, [&] {
      svc_->pump(*net_, plan_.chunks[0]);
      if (net_->stats().delivered != packets_of(plan_.chunks[0]))
        ph.fail("topk warm-up chunk lost packets");
    });
  }

  std::size_t op_count() const override { return plan_.chunks.size() - 1; }

  bool op(Phase& ph, std::size_t i) override {
    const std::vector<FlowSpec>& chunk = plan_.chunks[i];
    OpTimer timer(ph, *net_, static_cast<std::int64_t>(i));
    svc_->pump(*net_, chunk);
    timer.stop();
    const std::uint64_t sent = note_op(ph, timer.before(), net_->stats());
    // Every flow packet crosses exactly one wire and sinks at the neighbor.
    const std::uint64_t n = packets_of(chunk);
    return sent == n && net_->stats().delivered - timer.before().delivered == n;
  }

  bool finish(Phase& ph, Fingerprint& fp) override {
    ss::obs::TopkResult res;
    layer(ph, "obs.topk_sweep", &ph.sweep_s, [&] { res = svc_->sweep(*net_, 0); });
    ss::obs::TopkValidation val;
    layer(ph, "obs.topk_validate", nullptr,
          [&] { val = svc_->validate(res, plan_.flows); });
    ph.recall = val.recall;
    ph.sweep_msgs = res.stats.inband_msgs;
    fp = totals(ph);
    fp.delivered = net_->stats().delivered;
    fp.dropped = net_->stats().dropped_down;
    fp.sweep_msgs = res.stats.inband_msgs;
    return res.complete && res.row_sums_consistent && val.lower_bound_ok &&
           val.error_bound_ok && val.recall >= kTopkMinRecall;
  }

 private:
  const FlowPlan& plan_;
};

class XfsmEpisode final : public ServiceEpisode<ss::xfsm::XfsmService> {
 public:
  XfsmEpisode(Phase& ph, const FlowPlan& plan, bool first)
      : ServiceEpisode(
            ph, first, [] { return ss::graph::make_torus(kXfsmSide, kXfsmSide); },
            [](const ss::graph::Graph& g) {
              ss::xfsm::XfsmParams p;
              p.hosts = stride_hosts(g.node_count(), kXfsmHosts);
              p.program = ss::xfsm::make_policer(kXfsmBucket);
              p.capacity = kXfsmCapacity;
              return std::make_unique<ss::xfsm::XfsmService>(g, p);
            }),
        plan_(plan),
        m0_(svc_->params().moduli.front()) {
    layer(ph, "warmup", nullptr, [&] {
      if (!pump(ph, 0, false)) ph.fail("policer warm-up chunk did not verify");
    });
  }

  std::size_t op_count() const override { return plan_.chunks.size() - 1; }

  bool op(Phase& ph, std::size_t i) override { return pump(ph, i, true); }

  bool finish(Phase& ph, Fingerprint& fp) override {
    ss::xfsm::XfsmSweepResult swept;
    layer(ph, "xfsm.sweep", &ph.sweep_s, [&] { swept = svc_->sweep(*net_, 1); });
    ss::xfsm::XfsmValidation val;
    ss::xfsm::XfsmPolicerCheck bounds;
    layer(ph, "xfsm.validate", &ph.validate_s, [&] {
      val = svc_->validate(*net_, &swept);
      bounds = ss::xfsm::check_policer_bounds(
          plan_.flows, svc_->delivered_per_flow(*net_), kXfsmBucket, m0_);
    });
    ph.pump_s.push_back(double(pump_ns_) * 1e-9);
    ph.state_entries = val.state_entries;
    ph.evictions = val.evictions;
    ph.drop_frac = val.injected ? double(val.expected_drops) / double(val.injected) : 0.0;
    ph.sweep_msgs = swept.stats.inband_msgs;
    fp = totals(ph);
    fp.delivered = val.delivered;
    fp.dropped = val.expected_drops;
    fp.evictions = val.evictions;
    fp.sweep_msgs = swept.stats.inband_msgs;
    return swept.complete && val.ok() && bounds.ok && val.injected == plan_.packets;
  }

 private:
  /// Pump chunk i (timed as an op when `timed`) and check it: the
  /// interpreter saw every packet, wires conserved packets, and each flow of
  /// the chunk was policed within its bound.
  bool pump(Phase& ph, std::size_t i, bool timed) {
    const std::vector<FlowSpec>& chunk = plan_.chunks[i];
    const std::uint64_t injected0 = svc_->injected();
    const std::size_t mark = net_->local_deliveries().size();
    const ss::sim::Stats b = net_->stats();
    if (timed) {
      OpTimer timer(ph, *net_, static_cast<std::int64_t>(i));
      svc_->pump_flows(*net_, chunk);
      pump_ns_ += timer.stop();
      note_op(ph, b, net_->stats());
    } else {
      svc_->pump_flows(*net_, chunk);
    }
    const ss::sim::Stats& a = net_->stats();
    std::map<std::uint32_t, std::uint64_t> got;
    const ss::core::TagLayout& L = svc_->layout();
    const auto& dl = net_->local_deliveries();
    for (std::size_t j = mark; j < dl.size(); ++j)
      if (dl[j].packet.eth_type == ss::core::kEthFlow)
        ++got[static_cast<std::uint32_t>(L.get(dl[j].packet, L.flow_key()))];
    const bool conserved =
        a.sent - b.sent == (a.delivered - b.delivered) + (a.dropped_down - b.dropped_down) +
                               (a.dropped_blackhole - b.dropped_blackhole) +
                               (a.dropped_loss - b.dropped_loss);
    return svc_->injected() - injected0 == packets_of(chunk) && conserved &&
           ss::xfsm::check_policer_bounds(chunk, got, kXfsmBucket, m0_).ok;
  }

  const FlowPlan& plan_;
  std::uint32_t m0_ = 0;
  std::uint64_t pump_ns_ = 0;
};

// ---------------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------------

struct Inputs {
  Workload w;
  SnapshotPlan snap;
  FlowPlan flows;
  std::vector<SnapTruth> truth;  // lazily filled, shared across episodes
};

std::unique_ptr<Episode> make_episode(Inputs& in, Phase& ph, bool first) {
  switch (in.w) {
    case Workload::kSnapshotTorus:
      return std::make_unique<SnapshotEpisode>(ph, in.snap, in.truth, first);
    case Workload::kTopkFlows:
      return std::make_unique<TopkEpisode>(ph, in.flows, first);
    case Workload::kXfsmPolicer:
      return std::make_unique<XfsmEpisode>(ph, in.flows, first);
  }
  throw std::logic_error("unknown workload");
}

/// Run whole episodes until the phase deadline has passed, and at least
/// kMinEpisodes of them.  Every episode replays the same inputs and must
/// reproduce episode 0's fingerprint exactly.
void run_phase(Inputs& in, Phase& ph) {
  for (std::size_t ep = 0; ep < kMinEpisodes || now_ns() < ph.deadline_ns; ++ep) {
    Scope episode(ph.spans, "episode");
    ++ph.episodes;
    std::unique_ptr<Episode> e;
    try {
      Scope setup(ph.spans, "setup");
      e = make_episode(in, ph, ep == 0);
      ph.setup_s.push_back(double(setup.close()) * 1e-9);
    } catch (const std::exception& ex) {
      ++ph.attempted;  // the episode's ops never ran: count one failure
      ++ph.failed;
      ph.fail(std::string("set-up threw: ") + ex.what());
      return;
    }
    std::size_t failed = 0;
    for (std::size_t i = 1; i <= e->op_count(); ++i) {
      bool ok = false;
      ++ph.attempted;
      try {
        ok = e->op(ph, i);
      } catch (const std::exception& ex) {
        ph.fail(std::string("op threw: ") + ex.what());
      }
      if (!ok) ++failed;
      ph.calib_ns.push_back(double(calibrate_ns()));
    }
    ph.episode_speed.push_back(host_speed(std::move(ph.calib_ns)));
    ph.calib_ns.clear();
    bool ok = false;
    Fingerprint fp;
    try {
      ok = e->finish(ph, fp);
    } catch (const std::exception& ex) {
      ph.fail(std::string("read-out threw: ") + ex.what());
    }
    // A failed episode-level check fails every op of the episode.
    ph.failed += ok ? failed : e->op_count();
    if (!ok) ph.fail("episode verification failed");
    if (ep == 0) {
      ph.fingerprint = fp;
    } else if (!(fp == *ph.fingerprint)) {
      ph.fail("replayed episode diverged from episode 0: " + fp.str() + " vs " +
              ph.fingerprint->str());
    }
  }
}

/// Host-speed timings.  The rest of the host can slow the simulator by up to
/// ~2.5x for seconds to minutes at a time, so every timing is scaled to the
/// reference host speed by the calibration probe run between the ops of the
/// same episode.  Every episode replays identical simulated work; each op's
/// time is the median of its scaled replays, set-up the median of the scaled
/// episodes.  The rates divide one episode's ops and simulated events by the
/// sum of the op times; p50 and tail are taken over the plan's distinct ops.
struct OpTimes {
  std::vector<double> ms;  // one per distinct op, at reference speed
  double total_s = 0.0;
  std::uint64_t events = 0;
};
OpTimes timed_ops(const Phase& ph) {
  OpTimes t;
  t.ms = op_times(ph.replay_ms, ph.episode_speed);
  for (const double ms : t.ms) t.total_s += ms * 1e-3;
  for (const std::uint64_t e : ph.replay_events) t.events += e;
  return t;
}

double events_per_s(const Phase& ph) {
  const OpTimes t = timed_ops(ph);
  return t.total_s > 0 ? double(t.events) / t.total_s : 0.0;
}

double setup_s(const Phase& ph) {
  std::vector<double> scaled;
  for (std::size_t r = 0; r < ph.setup_s.size() && r < ph.episode_speed.size(); ++r)
    scaled.push_back(ph.setup_s[r] * ph.episode_speed[r]);
  return median_of(std::move(scaled));
}

std::vector<Metric> end_to_end(const Phase& ph) {
  const OpTimes t = timed_ops(ph);
  const double ops_per_s = t.total_s > 0 ? double(t.ms.size()) / t.total_s : 0.0;
  return {
      {"setup_s", setup_s(ph), "s"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"op_p50_ms", median_of(t.ms), "ms"},
      {"op_tail_ms", tail_of(t.ms).value, "ms"},
      {"events_per_s", events_per_s(ph), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Phase& ph, const Phase& untraced) {
  const double eps = events_per_s(ph);
  const double u_eps = events_per_s(untraced);
  const double ops = ph.ops ? double(ph.ops) : 1.0;
  const double op_s = double(ph.op_ns) * 1e-9;
  const auto& disp = ph.prof.at(prof::Stage::kFlowDispatch);
  const auto& grp = ph.prof.at(prof::Stage::kGroupExec);
  const auto& lk = ph.prof.at(prof::Stage::kStateLookup);
  const auto& st = ph.prof.at(prof::Stage::kStateStore);
  const std::vector<double> times = timed_ops(ph).ms;
  const Tail tail = tail_of(times);
  std::vector<double> q = ph.queue_depth;
  std::sort(q.begin(), q.end());
  const bool xfsm = ph.w == Workload::kXfsmPolicer;
  const bool topk = ph.w == Workload::kTopkFlows;
  return {
      {"graph.build_s", median_of(ph.graph_s), "s"},
      {"core.construct_s", median_of(ph.construct_s), "s"},
      {"sim.build_s", median_of(ph.net_s), "s"},
      {"ofp.install_s", median_of(ph.install_s), "s"},
      {"ofp.index_build_s", median_of(ph.index_s), "s"},
      {"ofp.flow_entries", double(ph.flow_entries), "count"},
      {"ofp.table_bytes_max", double(ph.table_bytes_max), "bytes"},
      {"ofp.linear_tables", double(ph.linear_tables), "count"},
      {"core.inband_msgs_per_op", double(ph.sent) / ops, "count"},
      {"core.outband_msgs_per_op", double(ph.outband) / ops, "count"},
      {"core.max_wire_bytes", double(ph.max_wire), "bytes"},
      {"core.fragments_per_op", double(ph.fragments) / ops, "count"},
      {"ofp.dispatch_ops", double(disp.ops) / ops, "count"},
      {"ofp.dispatch_s", double(disp.ns_sum) * 1e-9 / ops, "s"},
      {"ofp.dispatch_ns_p50", stage_percentile_ns(disp, 50.0), "ns"},
      {"ofp.group_ops", double(grp.ops) / ops, "count"},
      {"ofp.group_s", double(grp.ns_sum) * 1e-9 / ops, "s"},
      {"ofp.group_ns_p50", stage_percentile_ns(grp, 50.0), "ns"},
      {"ofp.ff_backup_share",
       ph.ff_exec ? double(ph.ff_backup) / double(ph.ff_exec) : 0.0, "share"},
      {"ofp.state_lookup_s", double(lk.ns_sum) * 1e-9 / ops, "s"},
      {"ofp.state_store_s", double(st.ns_sum) * 1e-9 / ops, "s"},
      {"ofp.state_entries", double(ph.state_entries), "count"},
      {"ofp.state_evictions", double(ph.evictions), "count"},
      {"ofp.stage_s", double(ph.stage_ns) * 1e-9 / ops, "s"},
      {"sim.events_per_op", double(ph.op_events) / ops, "count"},
      {"sim.sent_per_op", double(ph.sent) / ops, "count"},
      {"sim.queue_depth_p50", q.empty() ? 0.0 : percentile(q, 50.0), "count"},
      {"sim.queue_depth_max", q.empty() ? 0.0 : q.back(), "count"},
      {"sim.deliveries_logged", double(ph.deliveries_logged), "count"},
      {"sim.self_s", double(ph.self_ns) * 1e-9 / ops, "s"},
      {"sim.self_share", ph.op_ns ? double(ph.self_ns) / double(ph.op_ns) : 0.0, "share"},
      {"op_span_s", op_s / ops, "s"},
      {"op_tail_pct", tail.pct, "pct"},
      {"op_tail_beyond", double(tail.beyond), "count"},
      {"op_samples", double(times.size()), "count"},
      {"op_replays", double(ph.episodes), "count"},
      {"host.speed", median_of(ph.episode_speed), "share"},
      {"host.raw_op_p50_ms", median_of(ph.op_ms), "ms"},
      {"failed_frac",
       ph.attempted ? double(ph.failed) / double(ph.attempted) : 0.0, "share"},
      {"xfsm.pump_s", xfsm ? median_of(ph.pump_s) : 0.0, "s"},
      {"xfsm.sweep_s", xfsm ? median_of(ph.sweep_s) : 0.0, "s"},
      {"xfsm.validate_s", xfsm ? median_of(ph.validate_s) : 0.0, "s"},
      {"xfsm.drop_frac", xfsm ? ph.drop_frac : 0.0, "share"},
      {"obs.topk_sweep_s", topk ? median_of(ph.sweep_s) : 0.0, "s"},
      {"obs.topk_sweep_msgs", topk ? double(ph.sweep_msgs) : 0.0, "count"},
      {"obs.topk_recall", topk ? ph.recall : 0.0, "share"},
      {"trace.events_per_s", eps, "1/s"},
      {"trace.overhead_events_per_s", eps - u_eps, "1/s"},
      {"trace.overhead_share", u_eps > 0 ? (eps - u_eps) / u_eps : 0.0, "share"},
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w :
       {Workload::kSnapshotTorus, Workload::kTopkFlows, Workload::kXfsmPolicer})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSnapshotTorus: return "snapshot_torus";
    case Workload::kTopkFlows: return "topk_flows";
    case Workload::kXfsmPolicer: return "xfsm_policer";
  }
  return "?";
}

SnapshotPlan make_snapshot_plan(std::uint64_t seed) {
  SnapshotPlan plan;
  plan.rows = plan.cols = kTorusSide;
  const std::size_t n = plan.rows * plan.cols;
  const std::size_t edges = 2 * n;  // make_torus: right + down link per node
  ss::util::Rng rng(mix(seed, 1));
  for (std::size_t i = 0; i <= kSnapOps; ++i) {
    SnapOp o;
    o.root = static_cast<NodeId>(rng.uniform(0, n - 1));
    if (rng.chance(kSnapFailShare))
      while (o.down.size() < kSnapLinksDown) {
        const auto e = static_cast<EdgeId>(rng.uniform(0, edges - 1));
        if (std::find(o.down.begin(), o.down.end(), e) == o.down.end())
          o.down.push_back(e);
      }
    plan.ops.push_back(std::move(o));
  }
  return plan;
}

std::vector<std::vector<FlowSpec>> chunk_flows(const std::vector<FlowSpec>& flows,
                                               std::uint64_t target, bool split) {
  std::vector<std::vector<FlowSpec>> chunks(1);
  std::uint64_t fill = 0;
  auto close = [&] {
    chunks.emplace_back();
    fill = 0;
  };
  for (const FlowSpec& f : flows) {
    FlowSpec rest = f;
    while (split && fill + rest.packets > target) {
      FlowSpec piece = rest;
      piece.packets = static_cast<std::uint32_t>(target - fill);
      piece.bytes = std::uint64_t{piece.packets} * ss::sim::flow_packet_bytes(f.fkey);
      rest.packets -= piece.packets;
      rest.bytes -= piece.bytes;
      if (piece.packets > 0) chunks.back().push_back(piece);
      close();
    }
    if (rest.packets == 0) continue;
    chunks.back().push_back(rest);
    fill += rest.packets;
    if (fill >= target) close();
  }
  if (chunks.back().empty()) chunks.pop_back();
  return chunks;
}

namespace {
FlowPlan flow_plan(const ss::sim::FlowWorkloadConfig& fc, std::uint64_t chunk,
                   bool split) {
  FlowPlan plan;
  plan.flows = ss::sim::make_flow_workload(fc);
  plan.packets = packets_of(plan.flows);
  plan.chunks = chunk_flows(plan.flows, chunk, split);
  return plan;
}
}  // namespace

FlowPlan make_topk_plan(std::uint64_t seed) {
  ss::sim::FlowWorkloadConfig fc;
  fc.seed = mix(seed, 2);
  fc.key_bits = 24;  // = TopkParams rows * row_bits (4 * 6)
  fc.elephants = 16;
  fc.mice = 12000;
  fc.elephant_min = 256;
  fc.elephant_max = 2048;
  return flow_plan(fc, kTopkChunkPackets, /*split=*/true);
}

FlowPlan make_xfsm_plan(std::uint64_t seed) {
  ss::sim::FlowWorkloadConfig fc;
  fc.seed = mix(seed, 3);
  fc.key_bits = 20;
  fc.elephants = 16;
  fc.mice = 12000;
  // Whole-flow chunks overshoot kXfsmChunkPackets by up to one flow; small
  // elephants keep op sizes within 1.5x of each other.
  fc.elephant_min = 64;
  fc.elephant_max = 128;
  return flow_plan(fc, kXfsmChunkPackets, /*split=*/false);
}

std::string Fingerprint::str() const {
  std::ostringstream o;
  o << "events=" << events << " sent=" << sent << " op_inband=" << op_inband
    << " delivered=" << delivered << " dropped=" << dropped
    << " evictions=" << evictions << " sweep_msgs=" << sweep_msgs;
  return o.str();
}

RunReport run_benchmark(const RunOptions& opt) {
  Inputs in{opt.workload, {}, {}, {}};
  if (opt.workload == Workload::kSnapshotTorus) {
    in.snap = make_snapshot_plan(opt.seed);
    in.truth.resize(in.snap.ops.size());
  } else {
    in.flows = opt.workload == Workload::kTopkFlows ? make_topk_plan(opt.seed)
                                                    : make_xfsm_plan(opt.seed);
  }
  const auto budget_ns = static_cast<std::uint64_t>(opt.seconds * 1e9);
  RunReport rep;
  // A traced run spends half its time untraced (the overhead baseline) and
  // half traced; an untraced run spends all of it untraced.
  Phase base(opt.workload, false);
  base.deadline_ns = now_ns() + (opt.trace ? budget_ns / 2 : budget_ns);
  run_phase(in, base);
  const Phase* report = &base;
  std::optional<Phase> traced;
  if (opt.trace) {
    traced.emplace(opt.workload, true);
    traced->deadline_ns = now_ns() + budget_ns / 2;
    run_phase(in, *traced);
    report = &*traced;
    rep.metrics = per_layer(*traced, base);
    if (traced->fingerprint && base.fingerprint &&
        !(*traced->fingerprint == *base.fingerprint))
      traced->fail("tracing changed the simulated counts: " +
                   traced->fingerprint->str() + " vs " + base.fingerprint->str());
    if (!opt.spans_out.empty() && !traced->spans.write_jsonl(opt.spans_out))
      traced->fail("cannot write spans to " + opt.spans_out);
  } else {
    rep.metrics = end_to_end(base);
  }

  rep.attempted = base.attempted + (traced ? traced->attempted : 0);
  rep.failed = base.failed + (traced ? traced->failed : 0);
  rep.correct = rep.failed == 0 && !base.errors && !(traced && traced->errors) &&
                rep.attempted > 0;

  const std::vector<double> times = timed_ops(*report).ms;
  const Tail tail = tail_of(times);
  auto line = [&](const std::string& s) { rep.lines.push_back(s); };
  std::ostringstream h;
  h << "workload=" << workload_name(opt.workload) << " seed=" << opt.seed
    << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
    << " episodes=" << report->episodes << " ops=" << report->ops;
  line(h.str());
  line("fingerprint " + base.fingerprint.value_or(Fingerprint{}).str());
  std::ostringstream t;
  t << "op_tail_ms is p" << tail.pct << " of the times of " << times.size()
    << " distinct ops (" << tail.beyond << " beyond; each the median of "
    << report->episodes << " replays)";
  line(t.str());
  std::ostringstream hs;
  hs << "host speed " << median_of(report->episode_speed)
     << " of reference (median over episodes); unscaled op p50 "
     << median_of(report->op_ms) << " ms";
  line(hs.str());
  std::ostringstream f;
  f << "failed_frac " << (rep.attempted ? double(rep.failed) / double(rep.attempted) : 0.0)
    << " share (" << rep.failed << " of " << rep.attempted << " ops)";
  line(f.str());
  for (const Phase* ph : {&base, traced ? &*traced : nullptr})
    if (ph != nullptr)
      for (const std::string& n : ph->notes) line("error: " + n);
  for (const Metric& m : rep.metrics) {
    std::ostringstream o;
    o.precision(6);
    o << m.name << ' ' << m.value << ' ' << m.unit;
    line(o.str());
  }
  return rep;
}

}  // namespace perfbench
