#pragma once

/// @file spmv_select.hpp
/// Input-adaptive SpMV schedule selection (the GraphBLAST/Gunrock lesson):
/// a cheap inspector pass over the row-offsets array summarizes the degree
/// distribution, and a rule-based selector picks the CSR schedule —
/// row-parallel scalar or merge-path load-balanced — whose cost model wins
/// on that shape. The matrix stays in its device-resident CSR/CSC form, as
/// in the paper's CUDA backend. backend_gpu::mxv/vxm record each decision in
/// DeviceStats::kernel_selections and the estimated traffic avoided vs. the
/// row-parallel baseline in DeviceStats::spmv_bytes_saved_vs_baseline.

#include <cmath>
#include <cstdint>

#include "gpu_sim/context.hpp"
#include "sparse/engine_modes.hpp"
#include "sparse/formats.hpp"

namespace sparse {

using gpu_sim::SpmvKernelKind;

/// Degree-distribution summary produced by the inspector pass.
struct DegreeStats {
  Index nrows = 0;
  Index ncols = 0;
  Index nnz = 0;
  Index max_degree = 0;
  double mean_degree = 0.0;    ///< over all rows, empty included
  double degree_stddev = 0.0;  ///< population stddev of row degrees
  /// Effective slots of the row-parallel CSR kernel under warp-granular
  /// padding (gpu_sim::warp_padded_items) — the baseline traffic unit.
  std::uint64_t warp_padded_slots = 0;

  /// Max/mean row degree: >> 1 on power-law inputs.
  double skew() const {
    return mean_degree > 0.0 ? static_cast<double>(max_degree) / mean_degree
                             : 0.0;
  }
  /// Coefficient of variation of row degrees.
  double cv() const {
    return mean_degree > 0.0 ? degree_stddev / mean_degree : 0.0;
  }
};

/// Inspector over a raw CSR offsets array (usable on the backend's
/// device-resident row_offsets without any transfer — the simulated device
/// memory is host-addressable; the *cost* of the pass is charged separately
/// by the caller via account_kernel). With @p rows it summarizes only the
/// listed rows, packed in list order: a push traversal's compacted
/// frontier, whose warps run over the present rows only.
inline DegreeStats analyze_offsets(const Index* offsets, Index nrows,
                                   Index ncols, std::uint32_t warp_size,
                                   const Index* rows = nullptr) {
  const auto summarize = [&](auto degree) {
    DegreeStats s;
    s.nrows = nrows;
    s.ncols = ncols;
    if (nrows == 0) return s;
    double sum_sq = 0.0;
    for (Index r = 0; r < nrows; ++r) {
      const Index deg = degree(r);
      s.nnz += deg;
      s.max_degree = std::max(s.max_degree, deg);
      sum_sq += static_cast<double>(deg) * static_cast<double>(deg);
    }
    s.mean_degree = static_cast<double>(s.nnz) / static_cast<double>(nrows);
    const double var =
        sum_sq / static_cast<double>(nrows) - s.mean_degree * s.mean_degree;
    s.degree_stddev = var > 0.0 ? std::sqrt(var) : 0.0;
    s.warp_padded_slots = gpu_sim::warp_padded_items(nrows, warp_size, degree);
    return s;
  };
  if (rows)
    return summarize([=](std::size_t r) {
      return offsets[rows[r] + 1] - offsets[rows[r]];
    });
  return summarize(
      [=](std::size_t i) { return offsets[i + 1] - offsets[i]; });
}

template <typename T>
DegreeStats analyze(const Csr<T>& a, std::uint32_t warp_size) {
  return analyze_offsets(a.row_offsets.data(), a.nrows, a.ncols, warp_size);
}

// ---------------------------------------------------------------------------
// Traversal direction selection (push/pull, backend_gpu vxm/mxv)
// ---------------------------------------------------------------------------

using gpu_sim::TraversalDirection;

/// Beamer's direction-optimizing switch factor: pull becomes competitive
/// once the frontier's outgoing edges exceed 1/alpha of the edges still
/// pointing into the unvisited (mask-allowed) set, because an early-exiting
/// pull row touches ~alpha-fold fewer edges than its full degree.
inline constexpr double kPullAlpha = 14.0;

/// Shape summary of one masked traversal step (vxm frontier expansion or
/// its mxv transpose), gathered by the caller's inspector passes.
struct TraversalShape {
  std::uint64_t frontier_rows = 0;   ///< nnz of the input frontier
  std::uint64_t frontier_edges = 0;  ///< out-edges of the frontier
  std::uint64_t dest_rows = 0;       ///< mask-allowed destination vertices
  std::uint64_t dest_edges = 0;      ///< in-edges of those destinations
  std::uint64_t n = 0;               ///< vector length
  std::uint64_t nnz = 0;             ///< matrix nonzeros
  bool can_early_exit = false;       ///< additive monoid has an annihilator
  bool transpose_cached = true;      ///< CSC view already materialized
};

/// Modeled one-time cost of materializing the transpose (CSC) view a pull
/// traversal gathers through: flatten to column-major keys, 4-pass radix
/// argsort over (key, index) pairs, two permutation gathers, a split pass,
/// and a vectorized lower_bound for the offsets. Mirrors the LaunchStats
/// ensure_csc actually charges so the direction choice cannot pick a pull
/// step whose savings the build would swallow.
inline double estimated_transpose_build_time(
    std::uint64_t n, std::uint64_t nnz, std::size_t value_bytes,
    const gpu_sim::DeviceProperties& props) {
  std::uint64_t log_n = 1;
  while ((1ull << log_n) < std::max<std::uint64_t>(nnz, 2)) ++log_n;
  const std::uint64_t bytes =
      nnz * (8 * (sizeof(Index) + sizeof(Index))  // radix argsort passes
             + 3 * sizeof(Index)                  // key gather
             + sizeof(Index) + 2 * value_bytes    // value gather
             + 2 * sizeof(Index)                  // column-major expand
             + 3 * sizeof(Index)) +               // row/col split
      n * (2 * sizeof(Index) + log_n * sizeof(Index));  // expand + offsets
  const double compute =
      static_cast<double>(6 * nnz) / props.compute_throughput_ops_per_s;
  const double memory =
      static_cast<double>(bytes) / props.memory_bandwidth_bytes_per_s;
  return 9 * props.kernel_launch_overhead_s +
         (compute > memory ? compute : memory);
}

/// Estimated global-memory traffic of one push-direction step: the sparse
/// index list, two offsets per frontier row, the frontier's values, and per
/// out-edge the column index + matrix value + scattered t value/presence.
inline std::uint64_t estimated_push_traversal_bytes(const TraversalShape& s,
                                                    std::size_t value_bytes) {
  return s.frontier_rows * (3 * sizeof(Index) + value_bytes) +
         s.frontier_edges * (sizeof(Index) + 2 * value_bytes + 1);
}

/// Expected in-edges a pull step actually scans: with an annihilating
/// additive monoid each destination row stops at its first frontier hit —
/// ~alpha-fold fewer touched edges on traversal shapes; without one every
/// row must fold to completion.
inline std::uint64_t expected_pull_scanned_edges(const TraversalShape& s) {
  if (!s.can_early_exit) return s.dest_edges;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(static_cast<double>(s.dest_edges) /
                                 kPullAlpha);
  return expected > s.dest_rows ? expected : s.dest_rows;
}

/// Estimated traffic of one pull-direction step: mask-flag build +
/// destination compaction (n-sized streaming passes), two offsets + one t
/// write per destination row, and per scanned in-edge the source row index,
/// matrix value, and source presence/value probes.
inline std::uint64_t estimated_pull_traversal_bytes(const TraversalShape& s,
                                                    std::size_t value_bytes) {
  return 3 * s.n +
         s.dest_rows * (3 * sizeof(Index) + value_bytes + 1) +
         expected_pull_scanned_edges(s) *
             (sizeof(Index) + 2 * value_bytes + 1);
}

/// Modeled time of one traversal step in @p direction: fixed launch
/// overheads (pull pays extra launches for mask flags, destination
/// compaction, and its inspector) plus the roofline max of compute and
/// memory time — the same shape as estimated_spmv_time so the two engines
/// share one calibration.
inline double estimated_traversal_time(TraversalDirection direction,
                                       const TraversalShape& s,
                                       std::size_t value_bytes,
                                       const gpu_sim::DeviceProperties& props) {
  std::uint64_t bytes = 0;
  std::uint64_t edges = 0;
  unsigned launches = 0;
  if (direction == TraversalDirection::kPush) {
    bytes = estimated_push_traversal_bytes(s, value_bytes);
    edges = s.frontier_edges;
    launches = 2;  // frontier-degree inspector + scatter
  } else {
    bytes = estimated_pull_traversal_bytes(s, value_bytes);
    edges = expected_pull_scanned_edges(s);
    launches = 5;  // mask flags, compaction (scan+scatter), inspector, gather
  }
  const double compute =
      static_cast<double>(2 * edges) / props.compute_throughput_ops_per_s;
  const double memory =
      static_cast<double>(bytes) / props.memory_bandwidth_bytes_per_s;
  double time = launches * props.kernel_launch_overhead_s +
                (compute > memory ? compute : memory);
  // A pull step against a cold transpose pays the full CSC build up front;
  // fold it into pull's bill so Auto only flips direction once the gather
  // view is already (or about to be) amortized.
  if (direction == TraversalDirection::kPull && !s.transpose_cached)
    time += estimated_transpose_build_time(s.n, s.nnz, value_bytes, props);
  return time;
}

/// Pick the traversal direction for one masked vxm/mxv step.
///
/// Beamer's inequality proposes: pull once frontier out-edges exceed
/// dest_edges / alpha (the frontier is "heavy" relative to what remains).
/// When device properties are supplied the roofline model ratifies the
/// proposal — pull's extra fixed launches must actually be paid for — the
/// same propose-then-ratify structure as select_kernel. Pull is only
/// proposed when the semiring's additive monoid can early-exit; a
/// non-annihilating fold (e.g. min-plus over doubles) scans every in-edge
/// and cannot beat a frontier-sized push.
inline TraversalDirection select_direction(
    const TraversalShape& s, DirectionMode mode = engine_modes().direction,
    const gpu_sim::DeviceProperties* props = nullptr,
    std::size_t value_bytes = sizeof(double)) {
  switch (mode) {
    case DirectionMode::ForcePush:
      return TraversalDirection::kPush;
    case DirectionMode::ForcePull:
      return TraversalDirection::kPull;
    case DirectionMode::Auto:
      break;
  }
  if (!s.can_early_exit || s.dest_edges == 0)
    return TraversalDirection::kPush;
  const bool heavy =
      static_cast<double>(s.frontier_edges) * kPullAlpha >=
      static_cast<double>(s.dest_edges);
  if (!heavy) return TraversalDirection::kPush;
  if (props &&
      estimated_traversal_time(TraversalDirection::kPull, s, value_bytes,
                               *props) >
          estimated_traversal_time(TraversalDirection::kPush, s, value_bytes,
                                   *props))
    return TraversalDirection::kPush;
  return TraversalDirection::kPull;
}

// Selection thresholds. Derived from the cost model, not tuned per input:
// the load-balanced schedule pays once warp-granular padding inflates
// baseline traffic by the skew factor.
inline constexpr double kLbSkewThreshold = 8.0;
inline constexpr double kLbCvThreshold = 1.0;

/// Estimated steady-state global-memory traffic of one y = A*x under each
/// CSR schedule, in bytes, with value type size @p value_bytes. Mirrors the
/// LaunchStats the backend_gpu mxv kernels charge.
inline std::uint64_t estimated_spmv_bytes(SpmvKernelKind kind,
                                          const DegreeStats& s,
                                          std::size_t value_bytes) {
  const std::uint64_t entry = sizeof(Index) + 2 * value_bytes;
  const std::uint64_t offsets_bytes = (s.nrows + 1) * sizeof(Index);
  const std::uint64_t y_bytes = s.nrows * value_bytes;
  switch (kind) {
    case SpmvKernelKind::kCsrScalar:
      return s.warp_padded_slots * entry + offsets_bytes + y_bytes;
    case SpmvKernelKind::kCsrLoadBalanced: {
      const Index chunk = std::max<Index>(engine_modes().lb_chunk, 1);
      const Index nteams = (s.nnz + chunk - 1) / chunk;
      return s.nnz * entry + offsets_bytes + y_bytes +
             4 * nteams * (sizeof(Index) + value_bytes + 1);
    }
    case SpmvKernelKind::kCount:
      break;
  }
  return 0;
}

/// Approximate scalar-op count per call, mirroring the kernels' declared
/// LaunchStats (memory traffic dominates at ~0.1 ops/byte, but the estimate
/// keeps the roofline max() honest).
inline std::uint64_t estimated_spmv_ops(SpmvKernelKind kind,
                                        const DegreeStats& s) {
  switch (kind) {
    case SpmvKernelKind::kCsrScalar:
      return 2 * s.warp_padded_slots;
    case SpmvKernelKind::kCsrLoadBalanced: {
      const Index chunk = std::max<Index>(engine_modes().lb_chunk, 1);
      const Index nteams = (s.nnz + chunk - 1) / chunk;
      return 2 * s.nnz + 8 * nteams + 8 * 2 * nteams;
    }
    case SpmvKernelKind::kCount:
      break;
  }
  return 0;
}

/// Kernel launches per call: the load-balanced schedule pays a fixup launch.
/// At small sizes that fixed overhead decides the race, which is why the
/// selector ratifies choices against the full model.
inline unsigned estimated_launch_count(SpmvKernelKind kind) {
  return kind == SpmvKernelKind::kCsrLoadBalanced ? 2 : 1;
}

/// Modeled steady-state time of one y = A*x call under @p kind: launch
/// overheads plus the roofline max of compute and memory time.
inline double estimated_spmv_time(SpmvKernelKind kind, const DegreeStats& s,
                                  std::size_t value_bytes,
                                  const gpu_sim::DeviceProperties& props) {
  const double compute = static_cast<double>(estimated_spmv_ops(kind, s)) /
                         props.compute_throughput_ops_per_s;
  const double memory =
      static_cast<double>(estimated_spmv_bytes(kind, s, value_bytes)) /
      props.memory_bandwidth_bytes_per_s;
  return estimated_launch_count(kind) * props.kernel_launch_overhead_s +
         (compute > memory ? compute : memory);
}

/// Pick the CSR schedule for a matrix with degree summary @p s.
///
/// The degree heuristic proposes a candidate; when device properties are
/// supplied, the cost model ratifies it — a proposal whose modeled time
/// (launch overheads included) loses to the row-parallel baseline is
/// discarded. This keeps small launch-bound inputs on the single-launch
/// scalar kernel even when their shape is skewed.
inline SpmvKernelKind select_kernel(
    const DegreeStats& s, SpmvMode mode = engine_modes().spmv,
    const gpu_sim::DeviceProperties* props = nullptr,
    std::size_t value_bytes = sizeof(double)) {
  switch (mode) {
    case SpmvMode::ForceCsrScalar:
      return SpmvKernelKind::kCsrScalar;
    case SpmvMode::ForceCsrLoadBalanced:
      return SpmvKernelKind::kCsrLoadBalanced;
    case SpmvMode::Adaptive:
      break;
  }
  SpmvKernelKind pick = SpmvKernelKind::kCsrScalar;
  if (s.nnz == 0) return pick;
  if (s.skew() >= kLbSkewThreshold || s.cv() >= kLbCvThreshold)
    pick = SpmvKernelKind::kCsrLoadBalanced;
  if (props && pick != SpmvKernelKind::kCsrScalar &&
      estimated_spmv_time(pick, s, value_bytes, *props) >
          estimated_spmv_time(SpmvKernelKind::kCsrScalar, s, value_bytes,
                              *props))
    pick = SpmvKernelKind::kCsrScalar;
  return pick;
}

}  // namespace sparse
