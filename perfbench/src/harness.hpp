#pragma once
// Measurement primitives of the repository benchmark: host-time spans
// recorded around calls into the simulator's public API, the tail
// percentile rule, per-op self-time arithmetic against the util::prof
// stage profiler, and the metric list printed at the end of a run.
//
// Everything here is benchmark-side: the benchmark times calls into the
// simulator and arms its existing util::prof stages, and adds no timers of its
// own inside it, so a later change to the simulator is measured by exactly the
// same code as its parent.

#include <cstdint>
#include <string>
#include <vector>

#include "util/profile.hpp"

namespace perfbench {

/// Monotonic host time in nanoseconds (steady_clock).
std::uint64_t now_ns();

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of `sorted` (ascending, non-empty), p in (0,100].
double percentile(const std::vector<double>& sorted, double p);

/// Number of samples ranked strictly above the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// The tail statistic: the highest percentile of the fixed ladder
/// {99.99, 99.9, 99, 95, 90, 75, 50} that still has at least
/// `kTailMinBeyond` samples ranked above it.  With fewer than 20 samples no
/// rung qualifies and the median is reported with its (short) beyond count.
inline constexpr std::size_t kTailMinBeyond = 10;
struct Tail {
  double pct = 50.0;       // which percentile was reported
  std::size_t beyond = 0;  // samples ranked above it
  double value = 0.0;
};
Tail tail_of(std::vector<double> samples);

/// Median (nearest rank) of an unsorted sample; 0 for an empty one.
double median_of(std::vector<double> samples);

/// Nearest-rank p-th percentile of an unsorted sample; 0 for an empty one.
double percentile_of(std::vector<double> samples, double p);

// ---------------------------------------------------------------------------
// Host speed
// ---------------------------------------------------------------------------

/// A fixed host-speed probe: builds and tears down an ordered map of growing
/// vectors from a constant seed (allocation, short tree walks and copies in
/// the core's private caches, like the simulator's own hot paths) and returns
/// its host time in nanoseconds.  A busy host slows this probe much as it
/// slows the simulator (perfbench/README.md, "Noise").  It stays small so
/// that it evicts little of the simulator's working set between ops.
std::uint64_t calibrate_ns();

/// The reference host speed is the one at which calibrate_ns() takes this
/// long; timings are reported as if the host had run at it.
inline constexpr double kCalibRefNs = 150'000.0;

/// Host speed over a window of calibration times, relative to the reference:
/// kCalibRefNs over their median (1 when the window ran at reference speed,
/// below 1 when the host was slower).  1 for an empty window.
double host_speed(std::vector<double> calib_ns);

/// Host time of each op of a replayed episode at the reference speed.
/// `replays[i][r]` is op i's host time in replay r and `speed[r]` the host
/// speed measured during replay r; op i's time is the median over its
/// replays of replays[i][r] * speed[r].  Ops that never ran (empty rows) are
/// skipped.
std::vector<double> op_times(const std::vector<std::vector<double>>& replays,
                             const std::vector<double>& speed);

/// Nearest-rank percentile of a util::prof stage's log-bucket histogram
/// (the lower edge of the bucket holding that rank); 0 when the stage never
/// ran.
double stage_percentile_ns(const ss::util::prof::StageCounters& c, double p);

// ---------------------------------------------------------------------------
// Op self time
// ---------------------------------------------------------------------------

/// Nanoseconds the profiled stages spent, summed over every util::prof
/// stage.  Stage sites nest only in group chains (a group bucket that
/// executes another group); a chain's inner time would count twice and
/// show as a low or negative self time.
std::uint64_t stage_ns_total(const ss::util::prof::StageProfile& p);

/// Split of one op's span into profiled stage time and the remainder — the
/// simulator's own time (event loop, packet movement, action
/// interpretation, service driver).  Integer nanoseconds, so
/// `stage_ns + self_ns == span_ns` holds exactly; self_ns may go negative
/// only if stage timers overlapped, which the harness reports as a failure
/// of the accounting rather than clamping it away.
struct OpSplit {
  std::uint64_t span_ns = 0;
  std::uint64_t stage_ns = 0;
  std::int64_t self_ns = 0;
};
/// `stage_before`/`stage_after` are stage_ns_total() readings taken at the
/// op's start and end.
OpSplit split_op(std::uint64_t span_ns, std::uint64_t stage_before,
                 std::uint64_t stage_after);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into the simulator (or a group of them).  `parent` is
/// the index of the enclosing span in SpanLog::spans() (-1 at the root);
/// `op` is the op id the span belongs to (-1 outside ops).  Op spans also
/// carry their stage/self split.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t op = -1;
  std::uint64_t stage_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t dur_ns() const { return end_ns - start_ns; }
};

/// In-memory span store.  Disabled logs record nothing (the untraced run
/// keeps only its own scalar timers).  Spans are written out once, at the
/// end of the run.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Open a span under the innermost open one; returns its index (or -1
  /// when disabled).
  std::int64_t open(const std::string& name);
  void close(std::int64_t id);
  /// Record an already-timed span under the innermost open one (no-op when
  /// disabled).
  void add(Span s);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start_ns, end_ns, parent, op and, for
  /// op spans, stage_ns/self_ns.  Returns false if the file can't be written.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: opens on construction, closes on destruction; also measures
/// its own duration so callers get the time with tracing off.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name)
      : log_(log), id_(log.open(name)), t0_(now_ns()) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close early; returns the duration in nanoseconds.
  std::uint64_t close();

 private:
  SpanLog& log_;
  std::int64_t id_;
  std::uint64_t t0_;
  std::uint64_t dur_ = 0;
  bool open_ = true;
};

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The JSON result line, printed last on stdout:
/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace perfbench
