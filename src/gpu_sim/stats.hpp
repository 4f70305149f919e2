#pragma once

/// @file stats.hpp
/// Cumulative counters of everything the simulated device did. Benches read
/// these to report simulated kernel time, transfer time and traffic exactly
/// the way nvprof output backed the paper's figures.

#include <array>
#include <cstddef>
#include <cstdint>

namespace gpu_sim {

/// CSR SpMV schedules the adaptive selector (sparse/spmv_select.hpp) can
/// dispatch to. Lives next to DeviceStats so selections can be counted per
/// variant the way nvprof attributes time to kernel names.
enum class SpmvKernelKind : unsigned {
  kCsrScalar = 0,       ///< row-parallel CSR (one thread per row)
  kCsrLoadBalanced,     ///< merge-path / nnz-chunked CSR
  kCount
};

inline constexpr std::size_t kSpmvKernelKindCount =
    static_cast<std::size_t>(SpmvKernelKind::kCount);

inline const char* to_string(SpmvKernelKind k) {
  switch (k) {
    case SpmvKernelKind::kCsrScalar: return "csr-scalar";
    case SpmvKernelKind::kCsrLoadBalanced: return "csr-load-balanced";
    case SpmvKernelKind::kCount: break;
  }
  return "unknown";
}

/// Traversal directions the direction-optimizing vxm/mxv engine can take
/// (backend_gpu/ops.hpp). Push scatters from the sparse frontier; pull
/// gathers into the unvisited set from the transpose (CSC) side.
enum class TraversalDirection : unsigned {
  kPush = 0,  ///< frontier-sized scatter over the sparse index list
  kPull,      ///< unvisited-row gather with per-row early exit
  kCount
};

inline constexpr std::size_t kTraversalDirectionCount =
    static_cast<std::size_t>(TraversalDirection::kCount);

inline const char* to_string(TraversalDirection d) {
  switch (d) {
    case TraversalDirection::kPush: return "push";
    case TraversalDirection::kPull: return "pull";
    case TraversalDirection::kCount: break;
  }
  return "unknown";
}

/// SpGEMM strategies the adaptive mxm engine (sparse/spgemm_select.hpp) can
/// dispatch to. ESC materializes every partial product and contracts with a
/// sort; hash accumulates per-row into an open-addressing table.
enum class SpgemmStrategy : unsigned {
  kEsc = 0,  ///< expansion / sorting / contraction
  kHash,     ///< row-wise hash-Gustavson accumulate
  kCount
};

inline constexpr std::size_t kSpgemmStrategyCount =
    static_cast<std::size_t>(SpgemmStrategy::kCount);

inline const char* to_string(SpgemmStrategy s) {
  switch (s) {
    case SpgemmStrategy::kEsc: return "esc";
    case SpgemmStrategy::kHash: return "hash";
    case SpgemmStrategy::kCount: break;
  }
  return "unknown";
}

struct DeviceStats {
  // Memory manager activity.
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::size_t bytes_in_use = 0;
  std::size_t peak_bytes_in_use = 0;
  std::uint64_t total_bytes_allocated = 0;

  // Size-class memory pool activity (Context::pool_alloc / pool_free).
  // pool_bytes_held is point-in-time: bytes cached on the freelists,
  // allocated from the device heap but not owned by any client.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t pool_trims = 0;
  std::size_t pool_bytes_held = 0;

  /// Fraction of pool allocations served from a freelist.
  double pool_hit_rate() const {
    const std::uint64_t total = pool_hits + pool_misses;
    return total > 0 ? static_cast<double>(pool_hits) /
                           static_cast<double>(total)
                     : 0.0;
  }

  // Kernel activity.
  std::uint64_t kernel_launches = 0;
  std::uint64_t kernel_ops = 0;
  std::uint64_t kernel_bytes_read = 0;
  std::uint64_t kernel_bytes_written = 0;
  double simulated_kernel_time_s = 0.0;

  // Transfer activity.
  std::uint64_t h2d_transfers = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_transfers = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t d2d_copies = 0;
  std::uint64_t d2d_bytes = 0;
  double simulated_transfer_time_s = 0.0;

  // Adaptive SpMV engine activity (sparse/spmv_select.hpp): how many SpMV
  // dispatches picked each kernel variant, and how much memory traffic those
  // choices avoided relative to the row-parallel CSR baseline.
  std::array<std::uint64_t, kSpmvKernelKindCount> kernel_selections{};
  std::uint64_t spmv_bytes_saved_vs_baseline = 0;

  std::uint64_t kernel_selections_total() const {
    std::uint64_t t = 0;
    for (auto v : kernel_selections) t += v;
    return t;
  }

  // Direction-optimizing traversal engine activity (backend_gpu/ops.hpp):
  // per-call push/pull decisions, sparse-frontier compactions actually
  // materialized, rows the pull kernel left before exhausting their
  // adjacency, and presence-bitmap recounts the nvals cache could not avoid.
  std::array<std::uint64_t, kTraversalDirectionCount> direction_selections{};
  std::uint64_t frontier_compactions = 0;
  std::uint64_t pull_early_exit_rows = 0;
  std::uint64_t nvals_recounts = 0;

  std::uint64_t direction_selections_total() const {
    std::uint64_t t = 0;
    for (auto v : direction_selections) t += v;
    return t;
  }

  // Adaptive SpGEMM engine activity (sparse/spgemm_select.hpp): per-call
  // ESC/hash strategy decisions, probe-chain collisions and table bytes the
  // hash path paid, and partial products the mask-seeded table refused to
  // insert (the masked early exit, quantified).
  std::array<std::uint64_t, kSpgemmStrategyCount> spgemm_selections{};
  std::uint64_t spgemm_hash_collisions = 0;
  std::uint64_t spgemm_hash_table_bytes = 0;
  std::uint64_t spgemm_masked_products_avoided = 0;

  std::uint64_t spgemm_selections_total() const {
    std::uint64_t t = 0;
    for (auto v : spgemm_selections) t += v;
    return t;
  }

  // Lazy op-DAG fusion activity (sparse/fusion_plan.hpp): multi-op groups
  // the planner charged as one composite launch, individual launches whose
  // fixed overhead that composite accounting elided, and wall-clock seconds
  // the multi-stream timeline hid by overlapping transfers with kernels
  // (serial sum of modeled durations minus the makespan over all streams).
  std::uint64_t fused_launches = 0;
  std::uint64_t launches_elided = 0;
  double overlap_seconds_hidden = 0.0;

  // Sharded multi-device activity (backend_gpu/sharded_ops.hpp): the widest
  // shard fan-out any single op on this context coordinated (point-in-time
  // high-water mark), total halo bytes moved across the device boundary for
  // sharded mxv/vxm (input-slice broadcasts plus per-shard output returns),
  // and the seconds of that exchange the pipeline hid under a concurrently
  // running shard kernel.
  std::uint64_t shards_active = 0;
  std::uint64_t halo_bytes_exchanged = 0;
  double halo_seconds_hidden = 0.0;

  // Bit-format engine activity (sparse/bitmap.hpp, backend_gpu/bit_ops.hpp):
  // how many ops the selectors routed onto the word-granularity bitmap
  // kernels, the 64-bit words those kernels actually touched (the Bit
  // analog of scanned edges — multiply by 8 for bytes), and explicit
  // CSR -> bitmap conversions materialized (one per cold view orientation).
  std::uint64_t bit_selections = 0;
  std::uint64_t bit_words_touched = 0;
  std::uint64_t bit_conversions = 0;

  /// Total simulated device-side time: the number the GPU columns of every
  /// table/figure report. This is the *serial* sum of modeled durations;
  /// subtract overlap_seconds_hidden for the multi-stream makespan.
  double simulated_total_time_s() const {
    return simulated_kernel_time_s + simulated_transfer_time_s;
  }
};

/// Difference of two cumulative snapshots — used by benches to attribute
/// device activity to one timed region.
inline DeviceStats operator-(const DeviceStats& a, const DeviceStats& b) {
  DeviceStats d;
  d.allocations = a.allocations - b.allocations;
  d.frees = a.frees - b.frees;
  d.bytes_in_use = a.bytes_in_use;  // point-in-time, not differenced
  d.peak_bytes_in_use = a.peak_bytes_in_use;
  d.total_bytes_allocated = a.total_bytes_allocated - b.total_bytes_allocated;
  d.pool_hits = a.pool_hits - b.pool_hits;
  d.pool_misses = a.pool_misses - b.pool_misses;
  d.pool_trims = a.pool_trims - b.pool_trims;
  d.pool_bytes_held = a.pool_bytes_held;  // point-in-time, not differenced
  d.kernel_launches = a.kernel_launches - b.kernel_launches;
  d.kernel_ops = a.kernel_ops - b.kernel_ops;
  d.kernel_bytes_read = a.kernel_bytes_read - b.kernel_bytes_read;
  d.kernel_bytes_written = a.kernel_bytes_written - b.kernel_bytes_written;
  d.simulated_kernel_time_s =
      a.simulated_kernel_time_s - b.simulated_kernel_time_s;
  d.h2d_transfers = a.h2d_transfers - b.h2d_transfers;
  d.h2d_bytes = a.h2d_bytes - b.h2d_bytes;
  d.d2h_transfers = a.d2h_transfers - b.d2h_transfers;
  d.d2h_bytes = a.d2h_bytes - b.d2h_bytes;
  d.d2d_copies = a.d2d_copies - b.d2d_copies;
  d.d2d_bytes = a.d2d_bytes - b.d2d_bytes;
  d.simulated_transfer_time_s =
      a.simulated_transfer_time_s - b.simulated_transfer_time_s;
  for (std::size_t i = 0; i < kSpmvKernelKindCount; ++i)
    d.kernel_selections[i] = a.kernel_selections[i] - b.kernel_selections[i];
  d.spmv_bytes_saved_vs_baseline =
      a.spmv_bytes_saved_vs_baseline - b.spmv_bytes_saved_vs_baseline;
  for (std::size_t i = 0; i < kTraversalDirectionCount; ++i)
    d.direction_selections[i] =
        a.direction_selections[i] - b.direction_selections[i];
  d.frontier_compactions = a.frontier_compactions - b.frontier_compactions;
  d.pull_early_exit_rows = a.pull_early_exit_rows - b.pull_early_exit_rows;
  d.nvals_recounts = a.nvals_recounts - b.nvals_recounts;
  for (std::size_t i = 0; i < kSpgemmStrategyCount; ++i)
    d.spgemm_selections[i] = a.spgemm_selections[i] - b.spgemm_selections[i];
  d.spgemm_hash_collisions =
      a.spgemm_hash_collisions - b.spgemm_hash_collisions;
  d.spgemm_hash_table_bytes =
      a.spgemm_hash_table_bytes - b.spgemm_hash_table_bytes;
  d.spgemm_masked_products_avoided =
      a.spgemm_masked_products_avoided - b.spgemm_masked_products_avoided;
  d.fused_launches = a.fused_launches - b.fused_launches;
  d.launches_elided = a.launches_elided - b.launches_elided;
  d.overlap_seconds_hidden =
      a.overlap_seconds_hidden - b.overlap_seconds_hidden;
  d.shards_active = a.shards_active;  // high-water mark, not differenced
  d.halo_bytes_exchanged = a.halo_bytes_exchanged - b.halo_bytes_exchanged;
  d.halo_seconds_hidden = a.halo_seconds_hidden - b.halo_seconds_hidden;
  d.bit_selections = a.bit_selections - b.bit_selections;
  d.bit_words_touched = a.bit_words_touched - b.bit_words_touched;
  d.bit_conversions = a.bit_conversions - b.bit_conversions;
  return d;
}

}  // namespace gpu_sim
