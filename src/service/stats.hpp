#pragma once

/// @file stats.hpp
/// Service-level counters, mirroring the gpu_sim::DeviceStats idiom: a plain
/// copyable struct the executor snapshots under its own lock, so callers can
/// diff two snapshots to measure a region. Latencies go into a log-scaled
/// histogram (constant memory, worst-case quantile error 2^(1/4) - 1 ≈ 18.9%;
/// see LatencyHistogram) instead of a reservoir, so recording is O(1) and
/// merge is loss-free.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace service {

/// Log-scaled latency histogram over microseconds. Bucket b covers
/// [floor(2^(b/4)), floor(2^((b+1)/4))) µs — four buckets per octave, 1 µs
/// to ~10 minutes in 128 buckets. A quantile interpolates linearly inside one
/// bucket, so it lies within 2^(1/4) - 1 ≈ 18.9% of the sample it stands for
/// (a lone sample at a bucket's bottom edge is reported at its top edge).
/// That is the worst case; perfbench's service.hist_p99_rel_err, the p99
/// measured against the exact sorted latencies, is typically 0.0002–0.03.
/// Copyable; merging two histograms is bucket-wise addition.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 128;
  static constexpr double kBucketsPerOctave = 4.0;

  void record(std::chrono::microseconds latency) {
    ++counts_[bucket_of(latency.count())];
    ++total_;
  }

  std::uint64_t count() const { return total_; }

  /// Approximate quantile in microseconds; p in [0, 1]. Interpolates
  /// linearly within the bucket holding the target rank. Returns 0 when
  /// empty.
  double quantile(double p) const {
    if (total_ == 0) return 0.0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    // Rank of the target sample, 1-based; p=1 must land on the last sample.
    const double rank = p * static_cast<double>(total_ - 1) + 1.0;
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      const std::uint64_t next = seen + counts_[b];
      if (rank <= static_cast<double>(next)) {
        const double within =
            (rank - static_cast<double>(seen)) / counts_[b];  // (0, 1]
        const double lo = bucket_floor_us(b);
        const double hi = bucket_floor_us(b + 1);
        return lo + (hi - lo) * within;
      }
      seen = next;
    }
    return bucket_floor_us(kBuckets);  // unreachable with total_ > 0
  }

  void merge(const LatencyHistogram& other) {
    for (std::size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
  }

 private:
  static std::size_t bucket_of(std::int64_t us) {
    if (us < 1) return 0;
    // b = floor(log2(us) * buckets-per-octave), clamped to the table.
    std::size_t octave = 0;
    std::uint64_t v = static_cast<std::uint64_t>(us);
    while (v > 1) {
      v >>= 1;
      ++octave;
    }
    // Refine within the octave: which quarter of [2^o, 2^(o+1)) holds us?
    const double frac =
        static_cast<double>(us) / static_cast<double>(1ull << octave);
    std::size_t quarter = 0;
    double edge = 1.0;
    const double step = 1.189207115002721;  // 2^(1/4)
    while (quarter + 1 < static_cast<std::size_t>(kBucketsPerOctave) &&
           frac >= edge * step) {
      edge *= step;
      ++quarter;
    }
    const std::size_t b =
        octave * static_cast<std::size_t>(kBucketsPerOctave) + quarter;
    return b < kBuckets ? b : kBuckets - 1;
  }

  static double bucket_floor_us(std::size_t b) {
    const double octave = static_cast<double>(b) / kBucketsPerOctave;
    // 2^octave without <cmath> pow: split into integer + fractional part.
    const std::size_t whole = static_cast<std::size_t>(octave);
    double value = static_cast<double>(1ull << (whole < 63 ? whole : 63));
    const double step = 1.189207115002721;  // 2^(1/4)
    for (std::size_t q = whole * 4; q < b; ++q) value *= step;
    return value;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Snapshot of the serving layer's lifetime counters. Every submitted query
/// resolves to exactly one of {completed, cancelled, shed, failed}, so
/// submitted == completed + cancelled + shed + failed once the executor has
/// drained. Latency is recorded for every resolved query that reached a
/// worker (shed queries never ran, so they are excluded from the histogram).
struct ServiceStats {
  std::uint64_t submitted = 0;
  /// Queries a worker has begun executing (dequeued, past the queued-expiry
  /// checks, dispatched toward a backend). `started - (completed +
  /// cancelled + failed - <queued-expiry cancellations>)` is the in-flight
  /// count; tests use it as the "query is mid-flight" event instead of a
  /// timing-sensitive sleep.
  std::uint64_t started = 0;
  std::uint64_t completed = 0;   ///< resolved kOk
  std::uint64_t cancelled = 0;   ///< resolved kCancelled (deadline / token)
  std::uint64_t shed = 0;        ///< refused at admission (queue full)
  std::uint64_t failed = 0;      ///< resolved kFailed
  /// Backend placement counters: how many queries each worker-side backend
  /// actually ran (cancelled-in-queue and shed queries hit neither). With
  /// BackendMode::kAuto these record which side of crossover_nnz each
  /// executed query landed on.
  std::uint64_t ran_cpupar = 0;
  std::uint64_t ran_gpusim = 0;
  std::uint64_t ran_gpushard = 0;
  /// Sharded-path activity, aggregated from the workers' home-context
  /// gpu_sim::DeviceStats after each GpuShard query: the widest shard
  /// fan-out observed, total bytes moved through halo exchanges, and how
  /// much of that transfer time was hidden under shard kernels.
  std::uint64_t shards_active = 0;        ///< high-water mark across workers
  std::uint64_t halo_bytes_exchanged = 0;
  double halo_seconds_hidden = 0.0;
  /// Streaming-mutation counters (docs/streaming.md). The store-side four
  /// are merged from GraphStore::stats() when the executor snapshots; the
  /// rest are executor-side.
  std::uint64_t mutations = 0;         ///< apply_edges batches published
  std::uint64_t compactions = 0;       ///< overlay folds into a fresh base
  std::uint64_t edges_added = 0;
  std::uint64_t edges_removed = 0;
  std::uint64_t warm_starts = 0;       ///< incremental queries served warm
  std::uint64_t cold_fallbacks = 0;    ///< incremental requested, ran cold
  std::uint64_t result_cache_hits = 0; ///< exact-version result replays
  std::uint64_t result_cache_evictions = 0;  ///< LRU slots dropped at bound
  std::uint64_t cache_invalidations = 0;  ///< retired entries dropped
  LatencyHistogram latency;      ///< admission -> resolution, executed only

  std::uint64_t resolved() const {
    return completed + cancelled + shed + failed;
  }

  /// Throughput of completed queries over a wall-clock window.
  double qps(std::chrono::duration<double> window) const {
    const double s = window.count();
    return s > 0.0 ? static_cast<double>(completed) / s : 0.0;
  }
};

}  // namespace service
