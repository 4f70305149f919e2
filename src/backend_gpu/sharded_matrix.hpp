#pragma once

/// @file backend_gpu/sharded_matrix.hpp
/// Row-block sharded sparse matrix for the GpuShard backend: "a graph on a
/// placement" rather than "a graph on a device". The canonical storage is a
/// host-side CSR (plain std::vectors, never charged against any device
/// arena) — deliberately, because the whole point of sharding is graphs
/// whose CSR does NOT fit one simulated device, so no single monolithic
/// device copy can be the source of truth. Two lazily built, independently
/// invalidated device projections hang off it:
///
///  - shards(): one plain gpu_backend::Matrix per row block of the shard
///    plan (sparse/shard_plan.hpp), pinned round-robin over the calling
///    thread's gpu_sim placement. This is what the sharded mxv/vxm in
///    sharded_ops.hpp consume.
///  - home(): a monolithic gpu_backend::Matrix on the home device, used to
///    delegate the long tail of matrix ops (mxm, apply_mat, reduce, ...)
///    unchanged. Only legal when the graph fits one arena — building it for
///    an oversized graph surfaces DeviceBadAlloc exactly like the
///    single-device world would.
///
/// Any frontend mutation (build/clear/resize/setElement/...) edits the host
/// CSR and drops both projections.

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "backend_gpu/matrix.hpp"
#include "gbtl/types.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/placement.hpp"
#include "sparse/shard_plan.hpp"

namespace grb::gpu_backend {

template <typename T>
class ShardedMatrix {
 public:
  using ScalarType = T;

  /// One materialized row block: the plan entry plus a device matrix whose
  /// rows are renumbered to [0, meta.rows()) on its pinned context. Empty
  /// row blocks carry no matrix.
  struct ShardView {
    sparse::Shard meta;
    gpu_sim::Context* ctx = nullptr;
    std::optional<Matrix<T>> mat;
  };

  ShardedMatrix(IndexType nrows, IndexType ncols)
      : nrows_(nrows),
        ncols_(ncols),
        home_ctx_(&gpu_sim::device()),
        placement_(gpu_sim::placement_or_default()),
        row_ptr_(nrows + 1, 0) {
    if (nrows == 0 || ncols == 0)
      throw InvalidValueException("matrix dimensions must be positive");
  }

  // Copies/moves carry only the host CSR; the device projections are
  // rebuilt on demand (mirrors gpu_backend::Matrix dropping its CSC cache).
  ShardedMatrix(const ShardedMatrix& other)
      : nrows_(other.nrows_),
        ncols_(other.ncols_),
        home_ctx_(other.home_ctx_),
        placement_(other.placement_),
        row_ptr_(other.row_ptr_),
        cols_(other.cols_),
        vals_(other.vals_) {}
  ShardedMatrix& operator=(const ShardedMatrix& other) {
    if (this != &other) {
      nrows_ = other.nrows_;
      ncols_ = other.ncols_;
      home_ctx_ = other.home_ctx_;
      placement_ = other.placement_;
      row_ptr_ = other.row_ptr_;
      cols_ = other.cols_;
      vals_ = other.vals_;
      invalidate_device();
    }
    return *this;
  }
  ShardedMatrix(ShardedMatrix&&) noexcept = default;
  ShardedMatrix& operator=(ShardedMatrix&&) noexcept = default;

  IndexType nrows() const { return nrows_; }
  IndexType ncols() const { return ncols_; }
  IndexType nvals() const { return static_cast<IndexType>(cols_.size()); }
  gpu_sim::Context& context() const { return *home_ctx_; }
  const std::vector<gpu_sim::Context*>& placement() const {
    return placement_;
  }

  void clear() {
    std::fill(row_ptr_.begin(), row_ptr_.end(), IndexType{0});
    cols_.clear();
    vals_.clear();
    invalidate_device();
  }

  void resize(IndexType nrows, IndexType ncols) {
    if (nrows == 0 || ncols == 0)
      throw InvalidValueException("resize: dimensions must be positive");
    IndexArrayType r, c;
    std::vector<T> v;
    extract_tuples(r, c, v);
    nrows_ = nrows;
    ncols_ = ncols;
    row_ptr_.assign(nrows + 1, 0);
    cols_.clear();
    vals_.clear();
    IndexArrayType kr, kc;
    std::vector<T> kv;
    for (std::size_t k = 0; k < v.size(); ++k) {
      if (r[k] >= nrows || c[k] >= ncols) continue;
      kr.push_back(r[k]);
      kc.push_back(c[k]);
      kv.push_back(v[k]);
    }
    load_tuples_sorted(kr, kc, kv);
    invalidate_device();
  }

  /// Populate from host coordinate arrays; duplicates combine via @p dup in
  /// input-encounter order (left fold), matching the stable radix-sort +
  /// reduce_by_key pipeline of the single-device build.
  template <typename VIt, typename DupOp>
  void build(const IndexArrayType& row_idx, const IndexArrayType& col_idx,
             VIt values_begin, IndexType n, DupOp dup) {
    if (row_idx.size() < n || col_idx.size() < n)
      throw InvalidValueException("build: index arrays shorter than n");
    for (IndexType k = 0; k < n; ++k)
      if (row_idx[k] >= nrows_ || col_idx[k] >= ncols_)
        throw IndexOutOfBoundsException("build: tuple outside matrix shape");
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       if (row_idx[a] != row_idx[b])
                         return row_idx[a] < row_idx[b];
                       return col_idx[a] < col_idx[b];
                     });
    IndexArrayType r, c;
    std::vector<T> v;
    r.reserve(n);
    c.reserve(n);
    v.reserve(n);
    for (std::size_t p = 0; p < order.size(); ++p) {
      const std::size_t k = order[p];
      const T val = *(values_begin + static_cast<std::ptrdiff_t>(k));
      if (!v.empty() && r.back() == row_idx[k] && c.back() == col_idx[k]) {
        v.back() = dup(v.back(), val);
      } else {
        r.push_back(row_idx[k]);
        c.push_back(col_idx[k]);
        v.push_back(val);
      }
    }
    row_ptr_.assign(nrows_ + 1, 0);
    cols_.clear();
    vals_.clear();
    load_tuples_sorted(r, c, v);
    invalidate_device();
  }

  /// Row-major sorted tuple dump, straight off the host CSR.
  void extract_tuples(IndexArrayType& row_idx, IndexArrayType& col_idx,
                      std::vector<T>& values) const {
    row_idx.clear();
    col_idx.assign(cols_.begin(), cols_.end());
    values = vals_;
    row_idx.reserve(cols_.size());
    for (IndexType i = 0; i < nrows_; ++i)
      for (IndexType k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
        row_idx.push_back(i);
  }

  bool has_element(IndexType i, IndexType j) const {
    bounds_check(i, j);
    return find_position(i, j) != kNotFound;
  }

  T get_element(IndexType i, IndexType j) const {
    bounds_check(i, j);
    const IndexType pos = find_position(i, j);
    if (pos == kNotFound) throw NoValueException("matrix getElement");
    return vals_[pos];
  }

  void set_element(IndexType i, IndexType j, const T& v) {
    bounds_check(i, j);
    const IndexType pos = find_position(i, j);
    if (pos != kNotFound) {
      vals_[pos] = v;
      invalidate_device();
      return;
    }
    // Insert within row i keeping columns sorted.
    IndexType k = row_ptr_[i];
    while (k < row_ptr_[i + 1] && cols_[k] < j) ++k;
    cols_.insert(cols_.begin() + static_cast<std::ptrdiff_t>(k), j);
    vals_.insert(vals_.begin() + static_cast<std::ptrdiff_t>(k), v);
    for (IndexType r = i + 1; r <= nrows_; ++r) ++row_ptr_[r];
    invalidate_device();
  }

  void remove_element(IndexType i, IndexType j) {
    bounds_check(i, j);
    const IndexType pos = find_position(i, j);
    if (pos == kNotFound) return;
    cols_.erase(cols_.begin() + static_cast<std::ptrdiff_t>(pos));
    vals_.erase(vals_.begin() + static_cast<std::ptrdiff_t>(pos));
    for (IndexType r = i + 1; r <= nrows_; ++r) --row_ptr_[r];
    invalidate_device();
  }

  friend bool operator==(const ShardedMatrix& a, const ShardedMatrix& b) {
    return a.nrows_ == b.nrows_ && a.ncols_ == b.ncols_ &&
           a.row_ptr_ == b.row_ptr_ && a.cols_ == b.cols_ &&
           a.vals_ == b.vals_;
  }

  // --- Host CSR access (planner, halo slicing, transpose) -----------------
  const IndexArrayType& host_row_ptr() const { return row_ptr_; }
  const IndexArrayType& host_cols() const { return cols_; }
  const std::vector<T>& host_vals() const { return vals_; }

  /// Estimated device footprint of the *monolithic* CSR+CSC projection —
  /// what sharding exists to split up.
  std::uint64_t device_bytes_estimate() const {
    const std::uint64_t idx = sizeof(IndexType);
    const std::uint64_t nnz = cols_.size();
    return 2 * ((nrows_ + 1) * idx + nnz * (idx + sizeof(T)));
  }

  // --- Shard projection ----------------------------------------------------

  /// The shard plan this matrix would execute under right now (cheap when
  /// shards are already built; otherwise plans without materializing).
  sparse::ShardPlan plan() const {
    if (!shards_.empty()) {
      sparse::ShardPlan p;
      for (const ShardView& sv : shards_) p.shards.push_back(sv.meta);
      return p;
    }
    return make_plan();
  }

  /// Materialize (lazily, then cache) one device matrix per row block,
  /// pinned round-robin over the placement captured at construction.
  const std::vector<ShardView>& shards() const {
    if (shards_.empty()) build_shards();
    return shards_;
  }

  bool shards_built() const { return !shards_.empty(); }

  // --- Monolithic home projection ------------------------------------------

  /// The whole matrix as one gpu_backend::Matrix on the home context, for
  /// ops that have no sharded path. Throws DeviceBadAlloc when the graph
  /// genuinely does not fit the home arena.
  const Matrix<T>& home() const { return ensure_home(); }

  /// Mutable home view for ops that *write* a ShardedMatrix output through
  /// the single-device pipelines. Callers must follow the write with
  /// sync_host_from_home() so the host CSR becomes canonical again.
  Matrix<T>& mutable_home() { return ensure_home(); }

  /// Pull the (possibly op-written) home view back into the host CSR and
  /// drop the shard projection, which the write made stale.
  void sync_host_from_home() {
    if (!home_view_) return;
    IndexArrayType r, c;
    std::vector<T> v;
    {
      gpu_sim::ScopedDevice bind(*home_ctx_);
      home_view_->extract_tuples(r, c, v);
      nrows_ = home_view_->nrows();
      ncols_ = home_view_->ncols();
    }
    row_ptr_.assign(nrows_ + 1, 0);
    cols_.clear();
    vals_.clear();
    load_tuples_sorted(r, c, v);
    shards_.clear();
  }

 private:
  static constexpr IndexType kNotFound = ~IndexType{0};

  void invalidate_device() {
    shards_.clear();
    if (home_view_) {
      gpu_sim::ScopedDevice bind(*home_ctx_);
      home_view_.reset();
    }
  }

  /// Append already-(row, col)-sorted, duplicate-free tuples into the CSR
  /// arrays (row_ptr_ must be zeroed to nrows_+1 entries on entry).
  void load_tuples_sorted(const IndexArrayType& r, const IndexArrayType& c,
                          const std::vector<T>& v) {
    cols_.assign(c.begin(), c.end());
    vals_ = v;
    for (IndexType rr : r) ++row_ptr_[rr + 1];
    for (IndexType i = 0; i < nrows_; ++i) row_ptr_[i + 1] += row_ptr_[i];
  }

  /// What one row block actually charges against its device: the pool
  /// rounds every buffer to a power-of-two size class, so a slice can cost
  /// up to 2x its raw CSR bytes.
  static std::uint64_t max_shard_class_bytes(const sparse::ShardPlan& plan) {
    const std::uint64_t idx = sizeof(IndexType);
    std::uint64_t worst = 0;
    for (const sparse::Shard& sh : plan.shards)
      worst = std::max(
          worst,
          static_cast<std::uint64_t>(
              gpu_sim::Context::pool_class_bytes((sh.rows() + 1) * idx) +
              gpu_sim::Context::pool_class_bytes(sh.nnz * idx) +
              gpu_sim::Context::pool_class_bytes(sh.nnz * sizeof(T))));
    return worst;
  }

  sparse::ShardPlan make_plan() const {
    std::uint64_t budget = 0;
    for (gpu_sim::Context* ctx : placement_) {
      const std::uint64_t b = ctx->properties().total_global_memory;
      budget = budget == 0 ? b : std::min(budget, b);
    }
    const std::size_t pin = sparse::engine_modes().shards;
    std::size_t count = sparse::choose_shard_count(
        device_bytes_estimate(), placement_.size(), budget, pin);
    sparse::ShardPlan plan = sparse::plan_shards(
        row_ptr_.data(), static_cast<std::size_t>(nrows_), count);
    // The naive count divides raw bytes by the whole arena, but a slice is
    // charged its class-rounded footprint, and the home context must hold
    // the op working set (output T̃, halo staging, algorithm vectors) NEXT
    // TO its own slice. Widen the fan-out until the largest rounded slice
    // fits half its device, so every context keeps working-set headroom.
    // A GBTL_SHARDS pin stays verbatim, as everywhere else.
    if (pin == 0 && budget > 0) {
      while (count < placement_.size() &&
             max_shard_class_bytes(plan) > budget / 2)
        plan = sparse::plan_shards(row_ptr_.data(),
                                   static_cast<std::size_t>(nrows_), ++count);
    }
    sparse::annotate_col_spans(plan, row_ptr_.data(), cols_.data());
    return plan;
  }

  void build_shards() const {
    const sparse::ShardPlan plan = make_plan();
    std::vector<ShardView> built;
    built.reserve(plan.count());
    for (std::size_t s = 0; s < plan.count(); ++s) {
      ShardView sv;
      sv.meta = plan.shards[s];
      sv.ctx = placement_[s % placement_.size()];
      if (sv.meta.rows() > 0) {
        gpu_sim::ScopedDevice bind(*sv.ctx);
        const IndexType r0 = sv.meta.row_begin;
        const IndexType r1 = sv.meta.row_end;
        const IndexType k0 = row_ptr_[r0];
        const IndexType k1 = row_ptr_[r1];
        IndexArrayType local_ptr(r1 - r0 + 1);
        for (IndexType i = r0; i <= r1; ++i)
          local_ptr[i - r0] = row_ptr_[i] - k0;
        Matrix<T> m(r1 - r0, ncols_, *sv.ctx);
        m.adopt(gpu_sim::device_vector<IndexType>(local_ptr, *sv.ctx),
                gpu_sim::device_vector<IndexType>(
                    IndexArrayType(cols_.begin() + k0, cols_.begin() + k1),
                    *sv.ctx),
                gpu_sim::device_vector<T>(
                    std::vector<T>(vals_.begin() + k0, vals_.begin() + k1),
                    *sv.ctx));
        sv.mat.emplace(std::move(m));
      }
      built.push_back(std::move(sv));
    }
    shards_ = std::move(built);
  }

  Matrix<T>& ensure_home() const {
    if (!home_view_) {
      gpu_sim::ScopedDevice bind(*home_ctx_);
      Matrix<T> m(nrows_, ncols_, *home_ctx_);
      m.adopt(gpu_sim::device_vector<IndexType>(row_ptr_, *home_ctx_),
              gpu_sim::device_vector<IndexType>(cols_, *home_ctx_),
              gpu_sim::device_vector<T>(vals_, *home_ctx_));
      home_view_.emplace(std::move(m));
    }
    return *home_view_;
  }

  void bounds_check(IndexType i, IndexType j) const {
    if (i >= nrows_ || j >= ncols_)
      throw IndexOutOfBoundsException("matrix element access");
  }

  IndexType find_position(IndexType i, IndexType j) const {
    const auto lo = cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i]);
    const auto hi =
        cols_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[i + 1]);
    const auto it = std::lower_bound(lo, hi, j);
    if (it != hi && *it == j)
      return static_cast<IndexType>(it - cols_.begin());
    return kNotFound;
  }

  IndexType nrows_ = 0;
  IndexType ncols_ = 0;
  gpu_sim::Context* home_ctx_ = nullptr;
  std::vector<gpu_sim::Context*> placement_;

  // Canonical host CSR.
  IndexArrayType row_ptr_;
  IndexArrayType cols_;
  std::vector<T> vals_;

  // Lazy device projections (see file comment).
  mutable std::vector<ShardView> shards_;
  mutable std::optional<Matrix<T>> home_view_;
};

}  // namespace grb::gpu_backend
