#pragma once

/// @file backend_gpu/overlay_ops.hpp
/// GpuSim mxv/vxm over (base matrix, replacement-row overlay): a base
/// pass plus a delta pass feeding the shared output pipeline.
///
/// The overlay's four host arrays are uploaded per call (O(delta) H2D,
/// accounted by the device_vector upload ctor) — the base CSR stays
/// resident and untouched.
///
/// Both ops run on the traversal core in backend_gpu/ops.hpp, so their
/// folds are the monolithic kernels' folds. mxv: the row-parallel
/// gather_rows over the base seeds t, then a delta kernel folds each
/// dirty row's replacement with fold_row and OVERWRITES its slot
/// (presence included — a dirty row whose fold is empty clears the base
/// pass's bit). vxm: one push scatter over the frontier, each source row
/// expanding its replacement or its base adjacency through scatter_row
/// (binary search in the uploaded dirty-row list).
///
/// Both ops run eagerly: they are not fusion-DAG citizens, so any pending
/// fused ops touching the operands are drained first.

#include <algorithm>
#include <cstdint>

#include "backend_gpu/matrix.hpp"
#include "backend_gpu/ops.hpp"
#include "backend_gpu/vector.hpp"
#include "gbtl/overlay.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/output_pipeline.hpp"

namespace grb::gpu_backend {

template <typename WT, typename MObj, typename Accum, typename SR,
          typename AT, typename UT>
void mxv_overlay(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, SR sr, const Matrix<AT>& A,
                 const MatrixOverlay<AT>& ov, const Vector<UT>& u) {
  sparse::fusion_sync_if_touches(&w);
  sparse::fusion_sync_if_touches(&A);
  sparse::fusion_sync_if_touches(&u);
  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& ctx = w.context();
  const IndexType n = A.nrows();
  const IndexType nnz = A.nvals();

  gpu_sim::device_vector<ZT> t_vals(n, ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(n, ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  gpu_sim::device_vector<IndexType> d_rows(ov.rows, ctx);
  gpu_sim::device_vector<IndexType> d_offs(ov.offsets, ctx);
  gpu_sim::device_vector<IndexType> d_cols(ov.cols, ctx);
  gpu_sim::device_vector<AT> d_vals(ov.vals, ctx);

  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  const AT* avals = A.values().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IndexType dirty = static_cast<IndexType>(ov.dirty_rows());
  const IndexType* drows = d_rows.data();
  const IndexType* doffs = d_offs.data();
  const IndexType* dcols = d_cols.data();
  const AT* dvals = d_vals.data();
  const SR sem = sr;

  const std::uint64_t entry =
      sizeof(IndexType) + sizeof(AT) + sizeof(UT) + 1;

  // Base pass: row-parallel CSR gather over every base row (dirty rows'
  // results are provisional — the delta pass replaces them).
  const detail::GatherInput<UT> in{u.values().data(), u.present().data()};
  detail::gather_rows(ctx, n,
                      LaunchStats{2 * nnz,
                                  nnz * entry + (n + 1) * sizeof(IndexType),
                                  n * (sizeof(ZT) + 1)},
                      sem, offs, cols, avals, in, tv, tp);

  // Delta pass: overwrite each dirty row's slot from its replacement row,
  // presence bit included.
  if (dirty > 0) {
    ctx.launch_n(
        dirty,
        LaunchStats{2 * ov.nnz(),
                    ov.nnz() * entry + dirty * 3 * sizeof(IndexType),
                    dirty * (sizeof(ZT) + 1)},
        [=](std::size_t s) {
          const IndexType i = drows[s];
          ZT acc = sem.zero();
          bool any = false;
          detail::fold_row<detail::MxvOrient>(sem, dcols, dvals, doffs[s],
                                              doffs[s + 1], in, acc, any);
          tv[i] = acc;
          tp[i] = any ? 1 : 0;
        });
  }

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

template <typename WT, typename MObj, typename Accum, typename SR,
          typename UT, typename AT>
void vxm_overlay(Vector<WT>& w, const OutputDescriptor<MObj>& out,
                 Accum accum, SR sr, const Vector<UT>& u,
                 const Matrix<AT>& A, const MatrixOverlay<AT>& ov) {
  sparse::fusion_sync_if_touches(&w);
  sparse::fusion_sync_if_touches(&A);
  sparse::fusion_sync_if_touches(&u);
  using detail::LaunchStats;
  using ZT = typename SR::result_type;
  gpu_sim::Context& ctx = w.context();

  gpu_sim::device_vector<ZT> t_vals(w.size(), ctx);
  gpu_sim::device_vector<std::uint8_t> t_pres(w.size(), ctx);
  gpu_sim::fill(t_pres, std::uint8_t{0});

  gpu_sim::device_vector<IndexType> d_rows(ov.rows, ctx);
  gpu_sim::device_vector<IndexType> d_offs(ov.offsets, ctx);
  gpu_sim::device_vector<IndexType> d_cols(ov.cols, ctx);
  gpu_sim::device_vector<AT> d_vals(ov.vals, ctx);

  const IndexType* offs = A.row_offsets().data();
  const IndexType* cols = A.col_indices().data();
  const AT* avals = A.values().data();
  const UT* uv = u.values().data();
  ZT* tv = t_vals.data();
  std::uint8_t* tp = t_pres.data();
  const IndexType dirty = static_cast<IndexType>(ov.dirty_rows());
  const IndexType* drows = d_rows.data();
  const IndexType* doffs = d_offs.data();
  const IndexType* dcols = d_cols.data();
  const AT* dvals = d_vals.data();
  const SR sem = sr;

  // Frontier inspector with row substitution: each present source row
  // expands either its replacement row or its base row.
  const auto& frontier = u.sparse_indices();
  const IndexType frontier_rows = static_cast<IndexType>(frontier.size());
  const IndexType* fidx = frontier.data();
  std::uint64_t items = 0;
  for (IndexType r = 0; r < frontier_rows; ++r) {
    const IndexType k = fidx[r];
    const std::size_t slot = ov.find_row(k);
    items += slot < ov.dirty_rows()
                 ? ov.offsets[slot + 1] - ov.offsets[slot]
                 : offs[k + 1] - offs[k];
  }
  ctx.account_kernel(
      LaunchStats{frontier_rows, frontier_rows * 3 * sizeof(IndexType), 64});

  // Push scatter (atomics on real hardware, simulated serially): frontier
  // rows ascend, so contributions land in the Sequential scatter's order —
  // vxm's scatter_row over each row's replacement or base adjacency.
  const std::uint64_t entry =
      sizeof(IndexType) + sizeof(AT) + sizeof(ZT) + 1;
  detail::serial_kernel(
      ctx,
      LaunchStats{2 * items + frontier_rows * 8,
                  frontier_rows * (3 * sizeof(IndexType) + sizeof(UT)) +
                      items * entry,
                  items * (sizeof(ZT) + 1)},
      [&] {
        for (IndexType r = 0; r < frontier_rows; ++r) {
          const IndexType k = fidx[r];
          // Binary search the dirty-row list (the 8-op term above).
          const IndexType lo = static_cast<IndexType>(
              std::lower_bound(drows, drows + dirty, k) - drows);
          if (lo < dirty && drows[lo] == k)
            detail::scatter_row<detail::VxmOrient>(
                sem, dcols, dvals, doffs[lo], doffs[lo + 1], uv[k], tv, tp);
          else
            detail::scatter_row<detail::VxmOrient>(
                sem, cols, avals, offs[k], offs[k + 1], uv[k], tv, tp);
        }
      });

  pipeline::write_vector(w, t_vals, t_pres, out, accum);
}

}  // namespace grb::gpu_backend
