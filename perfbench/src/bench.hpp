#pragma once

/// @file bench.hpp
/// Shared vocabulary of the perfbench binary: the clock, labelled metrics,
/// the in-memory span recorder (Chrome trace-event output) and the sample
/// statistics every workload reports through.
///
/// The benchmark measures the library from outside only: it times its own
/// calls into the public entry points and reads the counters the library
/// already publishes. Nothing here reaches into the library's internals.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (all threads) in seconds.
double process_cpu_s();
/// High-water resident set of this process in MiB.
double peak_rss_mb();

/// CPU ticks summed over the machine's CPUs (/proc/stat): those the
/// hypervisor stole, and all. Zero where the file is unavailable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks cpu_ticks();
/// Percent of CPU time stolen between two readings: how much a shared
/// host disturbed a window, recorded beside its timings.
double steal_pct(const CpuTicks& a, const CpuTicks& b);

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// How a number came about. `measured` is read off a clock or a counter of
/// real work; `modeled` comes from a cost model (gpu_sim's device clock, the
/// CpuPar lane Meter); `computed` is derived arithmetically from counters
/// (byte totals, ratios of counts).
enum class Tag { kMeasured, kModeled, kComputed };

struct Metric {
  double value = 0.0;
  std::string unit;
  Tag tag = Tag::kMeasured;
  /// True for counters that must repeat exactly for the same seed and build
  /// (simulated time, launch counts, rounds, routing counts).
  bool exact = false;
  /// Number of samples the value summarizes (0 when it is not a sample
  /// statistic).
  std::size_t samples = 0;
};

/// One workload run's output: end-to-end metrics (untraced window),
/// per-layer metrics (the traced run adds the costly ones: direct op
/// timings, the metered pass, trace overhead) and the correctness tally.
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::map<std::string, std::string> info;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;

  /// End-to-end metrics are all measured.
  void e2e(const std::string& name, double v, const std::string& unit,
           std::size_t samples = 0) {
    end_to_end[name] = Metric{v, unit, Tag::kMeasured, false, samples};
  }
  void layer(const std::string& name, double v, const std::string& unit,
             Tag tag = Tag::kMeasured, bool exact = false,
             std::size_t samples = 0) {
    per_layer[name] = Metric{v, unit, tag, exact, samples};
  }
  /// Record an output mismatch; any mismatch fails the run.
  void mismatch(const std::string& what) {
    correct = false;
    if (mismatches.size() < 20) mismatches.push_back(what);
  }
};

/// Median of @p v (copy; 0 when empty).
double median(std::vector<double> v);
/// Linear-interpolated quantile p in [0, 1] of @p v (copy; 0 when empty).
double quantile(std::vector<double> v, double p);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// In-memory span recorder. Disabled by default: Span guards then cost one
/// branch. When enabled, each span records name, category, start, end, the
/// span that was open on the same thread when it began (its parent) and the
/// request id of the job it belongs to. Spans are written out once, at the
/// end of the run, as Chrome trace-event JSON ("ph":"X" complete events).
class Trace {
 public:
  static Trace& instance();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Allocate a span id and make it the calling thread's open span.
  std::uint64_t open(std::uint64_t request_id);
  /// Close the thread's open span @p id, restoring its parent.
  void close(std::uint64_t id, const char* name, const char* cat,
             Clock::time_point start, Clock::time_point end);
  /// Record an already-finished interval as a child of @p parent (used for
  /// submit-to-ready intervals, which start and end on different threads).
  void record(const char* name, const char* cat, Clock::time_point start,
              Clock::time_point end, std::uint64_t parent,
              std::uint64_t request_id);
  /// The calling thread's open span id (0 at top level).
  std::uint64_t current() const;

  /// Self time per span name: duration minus the union of its children's
  /// intervals, summed over all spans of that name (seconds).
  std::map<std::string, std::pair<double, std::size_t>> self_time() const;
  /// Write Chrome trace-event JSON to @p path. Returns false on I/O error.
  bool write(const std::string& path) const;
  std::size_t size() const { return spans_.size(); }

 private:
  struct SpanRec {
    std::uint64_t id, parent, request;
    std::string name, cat;
    Clock::time_point start, end;
    std::uint64_t tid;
  };
  bool enabled_ = false;
  std::vector<SpanRec> spans_;
  std::uint64_t next_id_ = 1;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span on the calling thread; a no-op when tracing is off.
class Span {
 public:
  /// @p name and @p cat must outlive the span (string literals).
  Span(const char* name, const char* cat, std::uint64_t request_id = 0)
      : name_(name), cat_(cat) {
    if (Trace::instance().enabled()) {
      id_ = Trace::instance().open(request_id);
      start_ = Clock::now();
    }
  }
  ~Span() {
    if (id_ != 0)
      Trace::instance().close(id_, name_, cat_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* cat_;
  std::uint64_t id_ = 0;
  Clock::time_point start_{};
};

// ---------------------------------------------------------------------------
// Workload entry points
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nproc = 1;
  std::string trace_path;
};

/// Compute threads a workload may use at most (the machine's nproc).
void check_threads(const Options& opt, std::size_t threads, const char* what);

Report run_analytics(const Options& opt, bool gpusim);
Report run_serve(const Options& opt, bool mutate);

}  // namespace perfbench
