#pragma once

/// @file backend.hpp
/// Backend selection: maps a backend tag (grb::Sequential / grb::CpuPar /
/// grb::GpuSim / grb::GpuShard) to its name, its container types and its
/// operation entry points. GBTL 1.0 chose the backend by include-path
/// substitution at configure time; this repo uses a tag template parameter
/// instead so all backends coexist in one binary — the equivalence tests and
/// the CPU-vs-GPU benches depend on that. The complete_backend concept below
/// states the op table every backend must expose; gbtl/backend_check.cpp
/// asserts it for each tag, so a backend that loses an op breaks the build.

#include <type_traits>
#include <utility>

#include "backend_cpupar/ops.hpp"
#include "backend_gpu/matrix.hpp"
#include "backend_gpu/ops.hpp"
#include "backend_gpu/sharded_matrix.hpp"
#include "backend_gpu/sharded_ops.hpp"
#include "backend_gpu/vector.hpp"
#include "backend_sequential/matrix.hpp"
#include "backend_sequential/ops.hpp"
#include "backend_sequential/vector.hpp"
#include "gbtl/algebra.hpp"
#include "gbtl/types.hpp"
#include "gbtl/write_rules.hpp"

namespace grb {

/// Canonical name of a backend tag (QueryResult::backend, logs, benches).
template <typename Tag>
constexpr const char* backend_name() {
  if constexpr (std::is_same_v<Tag, Sequential>) return "sequential";
  else if constexpr (std::is_same_v<Tag, CpuPar>) return "cpupar";
  else if constexpr (std::is_same_v<Tag, GpuSim>) return "gpusim";
  else if constexpr (std::is_same_v<Tag, GpuShard>) return "gpushard";
  else return "unknown";
}

template <typename Tag>
struct backend_traits;

template <>
struct backend_traits<Sequential> {
  template <typename T>
  using matrix_type = seq_backend::Matrix<T>;
  template <typename T>
  using vector_type = seq_backend::Vector<T>;
};

/// CpuPar shares the Sequential containers outright (they are written to be
/// safe under CpuPar's distinct-slot parallel writes); only the op entry
/// points differ.
template <>
struct backend_traits<CpuPar> {
  template <typename T>
  using matrix_type = seq_backend::Matrix<T>;
  template <typename T>
  using vector_type = seq_backend::Vector<T>;
};

template <>
struct backend_traits<GpuSim> {
  template <typename T>
  using matrix_type = gpu_backend::Matrix<T>;
  template <typename T>
  using vector_type = gpu_backend::Vector<T>;
};

/// GpuShard spreads the matrix over the thread's gpu_sim placement as
/// row-block shards; vectors stay whole on the home device, so the vector
/// container is the plain GpuSim one.
template <>
struct backend_traits<GpuShard> {
  template <typename T>
  using matrix_type = gpu_backend::ShardedMatrix<T>;
  template <typename T>
  using vector_type = gpu_backend::Vector<T>;
};

/// Uniform forwarding shims so the frontend can dispatch to either backend
/// with one spelling. (Plain ADL would risk resolving back into the
/// frontend's own operation names.)
template <typename Tag>
struct backend_ops;

#define GBTL_FORWARD_OP(op_name)                           \
  template <typename... Args>                              \
  static decltype(auto) op_name(Args&&... args) {          \
    return backend_ns::op_name(std::forward<Args>(args)...); \
  }

template <>
struct backend_ops<Sequential> {
  template <typename M>
  static M transposed(const M& m) {
    return seq_backend::detail::transposed(m);
  }
#define backend_ns seq_backend
  GBTL_FORWARD_OP(mxm)
  GBTL_FORWARD_OP(mxv)
  GBTL_FORWARD_OP(vxm)
  GBTL_FORWARD_OP(ewise_add_vec)
  GBTL_FORWARD_OP(ewise_mult_vec)
  GBTL_FORWARD_OP(ewise_add_mat)
  GBTL_FORWARD_OP(ewise_mult_mat)
  GBTL_FORWARD_OP(apply_vec)
  GBTL_FORWARD_OP(apply_mat)
  GBTL_FORWARD_OP(apply_indexed_vec)
  GBTL_FORWARD_OP(apply_indexed_mat)
  GBTL_FORWARD_OP(reduce_mat_to_vec)
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
  GBTL_FORWARD_OP(transpose_op)
  GBTL_FORWARD_OP(extract_vec)
  GBTL_FORWARD_OP(extract_mat)
  GBTL_FORWARD_OP(extract_col)
  GBTL_FORWARD_OP(assign_vec)
  GBTL_FORWARD_OP(assign_vec_constant)
  GBTL_FORWARD_OP(assign_mat)
  GBTL_FORWARD_OP(assign_mat_constant)
  GBTL_FORWARD_OP(kronecker)
  GBTL_FORWARD_OP(select_mat)
  GBTL_FORWARD_OP(select_vec)
#undef backend_ns
};

template <>
struct backend_ops<CpuPar> {
  template <typename M>
  static M transposed(const M& m) {
    return seq_backend::detail::transposed(m);
  }
#define backend_ns cpupar_backend
  GBTL_FORWARD_OP(mxm)
  GBTL_FORWARD_OP(mxv)
  GBTL_FORWARD_OP(vxm)
  GBTL_FORWARD_OP(ewise_add_vec)
  GBTL_FORWARD_OP(ewise_mult_vec)
  GBTL_FORWARD_OP(ewise_add_mat)
  GBTL_FORWARD_OP(ewise_mult_mat)
  GBTL_FORWARD_OP(apply_vec)
  GBTL_FORWARD_OP(apply_mat)
  GBTL_FORWARD_OP(apply_indexed_vec)
  GBTL_FORWARD_OP(apply_indexed_mat)
  GBTL_FORWARD_OP(reduce_mat_to_vec)
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
  GBTL_FORWARD_OP(transpose_op)
  GBTL_FORWARD_OP(extract_vec)
  GBTL_FORWARD_OP(extract_mat)
  GBTL_FORWARD_OP(extract_col)
  GBTL_FORWARD_OP(assign_vec)
  GBTL_FORWARD_OP(assign_vec_constant)
  GBTL_FORWARD_OP(assign_mat)
  GBTL_FORWARD_OP(assign_mat_constant)
  GBTL_FORWARD_OP(kronecker)
  GBTL_FORWARD_OP(select_mat)
  GBTL_FORWARD_OP(select_vec)
#undef backend_ns
};

template <>
struct backend_ops<GpuSim> {
  template <typename M>
  static M transposed(const M& m) {
    return gpu_backend::transposed(m);
  }
#define backend_ns gpu_backend
  GBTL_FORWARD_OP(mxm)
  GBTL_FORWARD_OP(mxv)
  GBTL_FORWARD_OP(vxm)
  GBTL_FORWARD_OP(ewise_add_vec)
  GBTL_FORWARD_OP(ewise_mult_vec)
  GBTL_FORWARD_OP(ewise_add_mat)
  GBTL_FORWARD_OP(ewise_mult_mat)
  GBTL_FORWARD_OP(apply_vec)
  GBTL_FORWARD_OP(apply_mat)
  GBTL_FORWARD_OP(apply_indexed_vec)
  GBTL_FORWARD_OP(apply_indexed_mat)
  GBTL_FORWARD_OP(reduce_mat_to_vec)
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
  GBTL_FORWARD_OP(transpose_op)
  GBTL_FORWARD_OP(extract_vec)
  GBTL_FORWARD_OP(extract_mat)
  GBTL_FORWARD_OP(extract_col)
  GBTL_FORWARD_OP(assign_vec)
  GBTL_FORWARD_OP(assign_vec_constant)
  GBTL_FORWARD_OP(assign_mat)
  GBTL_FORWARD_OP(assign_mat_constant)
  GBTL_FORWARD_OP(kronecker)
  GBTL_FORWARD_OP(select_mat)
  GBTL_FORWARD_OP(select_vec)
#undef backend_ns
};

template <>
struct backend_ops<GpuShard> {
  template <typename M>
  static M transposed(const M& m) {
    return gpu_shard::transposed(m);
  }
#define backend_ns gpu_shard
  GBTL_FORWARD_OP(mxm)
  GBTL_FORWARD_OP(mxv)
  GBTL_FORWARD_OP(vxm)
  GBTL_FORWARD_OP(ewise_add_vec)
  GBTL_FORWARD_OP(ewise_mult_vec)
  GBTL_FORWARD_OP(ewise_add_mat)
  GBTL_FORWARD_OP(ewise_mult_mat)
  GBTL_FORWARD_OP(apply_vec)
  GBTL_FORWARD_OP(apply_mat)
  GBTL_FORWARD_OP(apply_indexed_vec)
  GBTL_FORWARD_OP(apply_indexed_mat)
  GBTL_FORWARD_OP(reduce_mat_to_vec)
  GBTL_FORWARD_OP(reduce_vec_to_scalar)
  GBTL_FORWARD_OP(reduce_mat_to_scalar)
  GBTL_FORWARD_OP(transpose_op)
  GBTL_FORWARD_OP(extract_vec)
  GBTL_FORWARD_OP(extract_mat)
  GBTL_FORWARD_OP(extract_col)
  GBTL_FORWARD_OP(assign_vec)
  GBTL_FORWARD_OP(assign_vec_constant)
  GBTL_FORWARD_OP(assign_mat)
  GBTL_FORWARD_OP(assign_mat_constant)
  GBTL_FORWARD_OP(kronecker)
  GBTL_FORWARD_OP(select_mat)
  GBTL_FORWARD_OP(select_vec)
#undef backend_ns
};

#undef GBTL_FORWARD_OP

// ==========================================================================
// The op table every backend exposes
// ==========================================================================

namespace op_probe {

// Declaration-only functors, named only inside the unevaluated
// requires-expression below.
struct IdxUnaryVec {
  double operator()(IndexType i, double v) const;
};
struct IdxUnaryMat {
  double operator()(IndexType i, IndexType j, double v) const;
};
struct PredVec {
  bool operator()(IndexType i, double v) const;
};
struct PredMat {
  bool operator()(IndexType i, IndexType j, double v) const;
};

}  // namespace op_probe

/// Ops implements the 25 GraphBLAS entry points plus the TransposeView
/// lowering hook over matrix type M and vector type V, each probed with
/// representative algebra arguments. When a static_assert on it fails, the
/// compiler names the first required expression that is invalid.
template <typename Ops, typename M, typename V>
concept complete_op_table = requires(
    M& c, V& w, double& s, const M& a, const M& b, const V& u, const V& v,
    const OutputDescriptor<EmptyMaskObj>& o, const IndexArrayType& idx) {
  Ops::mxm(c, o, NoAccumulate{}, ArithmeticSemiring<double>{}, a, b);
  Ops::mxv(w, o, NoAccumulate{}, ArithmeticSemiring<double>{}, a, u);
  Ops::vxm(w, o, NoAccumulate{}, ArithmeticSemiring<double>{}, u, a);
  Ops::ewise_add_vec(w, o, NoAccumulate{}, Plus<double>{}, u, v);
  Ops::ewise_mult_vec(w, o, NoAccumulate{}, Times<double>{}, u, v);
  Ops::ewise_add_mat(c, o, NoAccumulate{}, Plus<double>{}, a, b);
  Ops::ewise_mult_mat(c, o, NoAccumulate{}, Times<double>{}, a, b);
  Ops::apply_vec(w, o, NoAccumulate{}, Abs<double>{}, u);
  Ops::apply_mat(c, o, NoAccumulate{}, Abs<double>{}, a);
  Ops::apply_indexed_vec(w, o, NoAccumulate{}, op_probe::IdxUnaryVec{}, u);
  Ops::apply_indexed_mat(c, o, NoAccumulate{}, op_probe::IdxUnaryMat{}, a);
  Ops::reduce_mat_to_vec(w, o, NoAccumulate{}, PlusMonoid<double>{}, a);
  Ops::reduce_vec_to_scalar(s, NoAccumulate{}, PlusMonoid<double>{}, u);
  Ops::reduce_mat_to_scalar(s, NoAccumulate{}, PlusMonoid<double>{}, a);
  Ops::transpose_op(c, o, NoAccumulate{}, a);
  Ops::extract_vec(w, o, NoAccumulate{}, u, idx);
  Ops::extract_mat(c, o, NoAccumulate{}, a, idx, idx);
  Ops::extract_col(w, o, NoAccumulate{}, a, idx, IndexType{0});
  Ops::assign_vec(w, o, NoAccumulate{}, u, idx);
  Ops::assign_vec_constant(w, o, NoAccumulate{}, 1.0, idx);
  Ops::assign_mat(c, o, NoAccumulate{}, a, idx, idx);
  Ops::assign_mat_constant(c, o, NoAccumulate{}, 1.0, idx, idx);
  Ops::kronecker(c, o, NoAccumulate{}, Times<double>{}, a, b);
  Ops::select_mat(c, o, NoAccumulate{}, op_probe::PredMat{}, a);
  Ops::select_vec(w, o, NoAccumulate{}, op_probe::PredVec{}, u);
  Ops::transposed(a);
};

/// backend_ops<Tag> exposes the complete op table over Tag's own containers.
template <typename Tag>
concept complete_backend = complete_op_table<
    backend_ops<Tag>,
    typename backend_traits<Tag>::template matrix_type<double>,
    typename backend_traits<Tag>::template vector_type<double>>;

}  // namespace grb
