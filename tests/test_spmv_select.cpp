/// Kernel-selection property tests: the selector's choice on hand-built
/// degree-skewed vs. regular matrices (power-law => load-balanced schedule,
/// banded => row-parallel scalar), identical results from both CSR
/// schedules of the GpuSim mxv at every merge-path chunk size, edge shapes
/// (empty matrices, empty rows, a star's hub row), and the DeviceStats
/// selection counters recorded by the GraphBLAS backend.

#include <gtest/gtest.h>

#include <random>
#include <utility>
#include <vector>

#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "sparse/spmv_select.hpp"

namespace {

using gpu_sim::SpmvKernelKind;
using sparse::Csr;
using sparse::Index;
using sparse::SpmvMode;

using LbChunkGuard = sparse::ModeGuard<&sparse::EngineModes::lb_chunk>;
/// Stored (indices, values) of a result vector.
using Tuples = std::pair<grb::IndexArrayType, std::vector<double>>;

Csr<double> from_triples(Index nrows, Index ncols,
                         std::vector<Index> rows, std::vector<Index> cols,
                         std::vector<double> vals) {
  sparse::Coo<double> coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  coo.row = std::move(rows);
  coo.col = std::move(cols);
  coo.val = std::move(vals);
  return sparse::coo_to_csr(sparse::canonicalize(std::move(coo)));
}

/// Tridiagonal banded matrix with integer-valued entries.
Csr<double> banded(Index n) {
  std::vector<Index> r, c;
  std::vector<double> v;
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> val(-4, 4);
  for (Index i = 0; i < n; ++i)
    for (Index j = (i > 0 ? i - 1 : 0); j < std::min<Index>(n, i + 2); ++j) {
      r.push_back(i);
      c.push_back(j);
      v.push_back(val(rng));
    }
  return from_triples(n, n, std::move(r), std::move(c), std::move(v));
}

/// Power-law-ish: row i has ~n/(i+1) entries — heavy hubs up front.
Csr<double> power_law(Index n) {
  std::vector<Index> r, c;
  std::vector<double> v;
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> val(-4, 4);
  std::uniform_int_distribution<Index> col(0, n - 1);
  for (Index i = 0; i < n; ++i) {
    const Index deg = std::max<Index>(1, n / (i + 1));
    for (Index d = 0; d < deg; ++d) {
      r.push_back(i);
      c.push_back(col(rng));
      v.push_back(val(rng));
    }
  }
  return from_triples(n, n, std::move(r), std::move(c), std::move(v));
}

/// Perfectly regular: every row has exactly `deg` entries.
Csr<double> regular(Index n, Index deg) {
  std::vector<Index> r, c;
  std::vector<double> v;
  std::mt19937 rng(13);
  std::uniform_int_distribution<int> val(-4, 4);
  for (Index i = 0; i < n; ++i)
    for (Index d = 0; d < deg; ++d) {
      r.push_back(i);
      c.push_back((i + d * 3 + 1) % n);
      v.push_back(val(rng));
    }
  return from_triples(n, n, std::move(r), std::move(c), std::move(v));
}

/// Mostly degree-4 rows with a sprinkling of degree-16 rows: moderate skew
/// (3 <= skew < 8, cv < 1).
Csr<double> moderately_skewed(Index n) {
  std::vector<Index> r, c;
  std::vector<double> v;
  std::mt19937 rng(17);
  std::uniform_int_distribution<int> val(-4, 4);
  for (Index i = 0; i < n; ++i) {
    const Index deg = (i % 16 == 0) ? 16 : 4;
    for (Index d = 0; d < deg; ++d) {
      r.push_back(i);
      c.push_back((i * 5 + d * 7 + 1) % n);
      v.push_back(val(rng));
    }
  }
  return from_triples(n, n, std::move(r), std::move(c), std::move(v));
}

/// Directed star: hub row 0 points at every other vertex; spokes point back.
Csr<double> star(Index n) {
  std::vector<Index> r, c;
  std::vector<double> v;
  for (Index j = 1; j < n; ++j) {
    r.push_back(0);
    c.push_back(j);
    v.push_back(1.0);
    r.push_back(j);
    c.push_back(0);
    v.push_back(2.0);
  }
  return from_triples(n, n, std::move(r), std::move(c), std::move(v));
}

template <typename Tag>
grb::Matrix<double, Tag> to_grb(const Csr<double>& a) {
  grb::Matrix<double, Tag> m(a.nrows, a.ncols);
  grb::IndexArrayType rows, cols;
  std::vector<double> vals;
  for (Index i = 0; i < a.nrows; ++i)
    for (Index k = a.row_offsets[i]; k < a.row_offsets[i + 1]; ++k) {
      rows.push_back(i);
      cols.push_back(a.col_indices[k]);
      vals.push_back(a.values[k]);
    }
  m.build(rows, cols, vals, grb::Second<double>{});
  return m;
}

/// w = A * x on backend Tag under the calling thread's current modes.
template <typename Tag>
Tuples mxv_tuples(const Csr<double>& a, const std::vector<double>& x) {
  const auto m = to_grb<Tag>(a);
  const grb::Vector<double, Tag> u(x, 0.0);
  grb::Vector<double, Tag> w(a.nrows);
  grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, m, u, grb::Replace);
  Tuples t;
  w.extractTuples(t.first, t.second);
  return t;
}

/// GpuSim mxv pinned to one CSR schedule and merge-path chunk size.
Tuples gpu_mxv_tuples(const Csr<double>& a, const std::vector<double>& x,
                      SpmvMode mode, Index chunk) {
  sparse::SpmvModeGuard pin_mode(mode);
  LbChunkGuard pin_chunk(chunk);
  return mxv_tuples<grb::GpuSim>(a, x);
}

/// Simulated kernel seconds one gather-direction GpuSim mxv of @p a with a
/// dense all-ones input spends under @p mode.
double mxv_kernel_seconds(const Csr<double>& a, SpmvMode mode) {
  const auto m = to_grb<grb::GpuSim>(a);
  const grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.ncols, 1.0),
                                           0.0);
  grb::Vector<double, grb::GpuSim> w(a.nrows);
  sparse::DirectionModeGuard pull(sparse::DirectionMode::ForcePull);
  auto& dev = gpu_sim::device();
  double before = 0.0;
  {
    // The guard drains pending ops on entry and exit, so the window holds
    // exactly this mxv.
    sparse::SpmvModeGuard pin(mode);
    before = dev.stats().simulated_kernel_time_s;
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, m, u, grb::Replace);
  }
  return dev.stats().simulated_kernel_time_s - before;
}

sparse::DegreeStats degrees(const Csr<double>& a) {
  return sparse::analyze(a, gpu_sim::device().properties().warp_size);
}

SpmvKernelKind select(const Csr<double>& a) {
  return sparse::select_kernel(degrees(a), SpmvMode::Adaptive,
                               &gpu_sim::device().properties());
}

// --------------------------------------------------------------------------
// Selector choice on hand-built shapes
// --------------------------------------------------------------------------

TEST(SpmvSelect, PowerLawPicksLoadBalanced) {
  // Large enough that the saved padded traffic outweighs the merge-path
  // schedule's extra fixup launch — the selector's cost ratification keeps
  // smaller skewed inputs on the single-launch scalar kernel.
  const auto a = power_law(4096);
  EXPECT_EQ(select(a), SpmvKernelKind::kCsrLoadBalanced);
  EXPECT_GE(degrees(a).skew(), sparse::kLbSkewThreshold);
}

TEST(SpmvSelect, SmallSkewedInputStaysOnScalar) {
  // Same shape, two orders of magnitude smaller: launch overhead dominates,
  // so the cost model overrides the skew heuristic.
  const auto a = power_law(128);
  EXPECT_EQ(select(a), SpmvKernelKind::kCsrScalar);
  EXPECT_GE(degrees(a).skew(), sparse::kLbSkewThreshold);
}

TEST(SpmvSelect, ForcedModesOverrideHeuristic) {
  const auto skewed = degrees(power_law(64));
  const auto flat = degrees(banded(512));
  for (const auto& deg : {skewed, flat}) {
    EXPECT_EQ(sparse::select_kernel(deg, SpmvMode::ForceCsrScalar),
              SpmvKernelKind::kCsrScalar);
    EXPECT_EQ(sparse::select_kernel(deg, SpmvMode::ForceCsrLoadBalanced),
              SpmvKernelKind::kCsrLoadBalanced);
  }
}

TEST(SpmvSelect, ScalarStaysCompetitiveOnBanded) {
  // On a regular banded matrix the merge-path machinery (fill + partition
  // search + fixup) must not be selected: row-parallel carries no padding
  // penalty there.
  EXPECT_EQ(sparse::select_kernel(degrees(banded(512)), SpmvMode::Adaptive),
            SpmvKernelKind::kCsrScalar);
}

TEST(SpmvSelect, RegularPicksScalar) {
  // Fixed degree: zero skew, so the row-parallel schedule is kept.
  EXPECT_EQ(sparse::select_kernel(degrees(regular(128, 4)),
                                  SpmvMode::Adaptive),
            SpmvKernelKind::kCsrScalar);
}

// --------------------------------------------------------------------------
// Both CSR schedules compute the same y (exact: integer-valued doubles)
// --------------------------------------------------------------------------

class SpmvKernelEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(SpmvKernelEquivalence, AllPathsAgree) {
  const auto a = [&] {
    switch (GetParam()) {
      case 0:
        return banded(97);  // non-multiple-of-warp row count
      case 1:
        return power_law(101);
      case 2:
        return regular(64, 3);
      default:
        return moderately_skewed(80);
    }
  }();
  std::vector<double> x(a.ncols);
  std::mt19937 rng(23);
  std::uniform_int_distribution<int> val(-4, 4);
  for (auto& e : x) e = val(rng);

  // The host reference formats agree with each other...
  const auto want = sparse::spmv(a, x);
  EXPECT_EQ(sparse::spmv(sparse::csr_to_coo(a), x), want) << "coo";
  EXPECT_EQ(sparse::spmv(sparse::csr_to_csc(a), x), want) << "csc";

  // ...and with the Sequential backend, whose result every GpuSim schedule
  // must reproduce bit for bit.
  const Tuples seq = mxv_tuples<grb::Sequential>(a, x);
  std::vector<double> dense(a.nrows, 0.0);
  for (std::size_t k = 0; k < seq.first.size(); ++k)
    dense[seq.first[k]] = seq.second[k];
  EXPECT_EQ(dense, want) << "sequential mxv";

  for (const auto mode : {SpmvMode::Adaptive, SpmvMode::ForceCsrScalar,
                          SpmvMode::ForceCsrLoadBalanced})
    for (Index chunk : {Index{1}, Index{3}, Index{7}, Index{256}})
      EXPECT_EQ(gpu_mxv_tuples(a, x, mode, chunk), seq)
          << "mode " << static_cast<int>(mode) << ", chunk " << chunk;
}

INSTANTIATE_TEST_SUITE_P(Shapes, SpmvKernelEquivalence,
                         ::testing::Range(0, 4));

// --------------------------------------------------------------------------
// Cost model: the load-balanced schedule must beat row-parallel on skew
// --------------------------------------------------------------------------

TEST(SpmvSelect, LoadBalancedBeatsScalarOnPowerLaw) {
  const auto a = power_law(4096);
  const double scalar = mxv_kernel_seconds(a, SpmvMode::ForceCsrScalar);
  const double lb = mxv_kernel_seconds(a, SpmvMode::ForceCsrLoadBalanced);
  EXPECT_GT(scalar, 0.0);
  EXPECT_LT(lb, scalar);
}

// --------------------------------------------------------------------------
// Edge shapes through the GraphBLAS backends
// --------------------------------------------------------------------------

TEST(SpmvEdge, SelectorRoutesStarToLoadBalanced) {
  // Large enough for the hub row's warp-padded traffic to dwarf launch
  // overheads: the selector takes the load-balanced schedule, and the
  // backend charges it less than the row-parallel one.
  const auto a = star(4096);
  EXPECT_EQ(select(a), SpmvKernelKind::kCsrLoadBalanced);
  EXPECT_LT(mxv_kernel_seconds(a, SpmvMode::ForceCsrLoadBalanced),
            mxv_kernel_seconds(a, SpmvMode::ForceCsrScalar));
}

TEST(SpmvEdge, EmptyMatrixAllKernels) {
  Csr<double> a;
  a.nrows = 8;
  a.ncols = 8;
  a.row_offsets.assign(9, 0);
  const std::vector<double> x(8, 3.0);

  EXPECT_EQ(degrees(a).nnz, 0u);
  EXPECT_EQ(select(a), SpmvKernelKind::kCsrScalar);
  EXPECT_EQ(sparse::spmv(a, x), std::vector<double>(8, 0.0));
  const Tuples seq = mxv_tuples<grb::Sequential>(a, x);
  EXPECT_TRUE(seq.first.empty());
  for (const auto mode : {SpmvMode::Adaptive, SpmvMode::ForceCsrScalar,
                          SpmvMode::ForceCsrLoadBalanced})
    EXPECT_EQ(gpu_mxv_tuples(a, x, mode, 256), seq)
        << "mode " << static_cast<int>(mode);
}

TEST(SpmvEdge, ZeroDimensionedAnalyzeIsSafe) {
  const auto deg = sparse::analyze_offsets(nullptr, 0, 0, 32);
  EXPECT_EQ(deg.nnz, 0u);
  EXPECT_EQ(deg.skew(), 0.0);
  EXPECT_EQ(sparse::select_kernel(deg, SpmvMode::Adaptive),
            SpmvKernelKind::kCsrScalar);
}

TEST(SpmvEdge, EmptyRowsAgreeAcrossKernels) {
  // Rows 0, 3, 4, 7, 9 empty; others ragged — exercises the merge-path
  // kernel's empty-row skipping at team boundaries (chunk 2 splits
  // mid-row repeatedly).
  const auto a = from_triples(
      10, 10, {1, 1, 2, 5, 5, 5, 5, 5, 6, 8}, {0, 5, 2, 1, 2, 3, 4, 9, 0, 7},
      {2.0, -1.0, 3.0, 1.0, 1.0, 1.0, 1.0, 4.0, -2.0, 1.0});
  const std::vector<double> x = {1, 2, 3, 4, 0, 1, 2, 3, 4, 1};

  const Tuples seq = mxv_tuples<grb::Sequential>(a, x);
  EXPECT_EQ(gpu_mxv_tuples(a, x, SpmvMode::ForceCsrScalar, 256), seq)
      << "scalar";
  for (Index chunk : {Index{1}, Index{2}, Index{3}, Index{4}, Index{64}})
    EXPECT_EQ(gpu_mxv_tuples(a, x, SpmvMode::ForceCsrLoadBalanced, chunk),
              seq)
        << "load-balanced, chunk " << chunk;
}

TEST(SpmvEdge, StarThroughGraphBLASBackendsAgrees) {
  // End-to-end: the backend's adaptive mxv on a star graph matches the
  // sequential backend exactly (integer values => exact arithmetic).
  const auto a = star(64);
  const std::vector<double> x(64, 1.0);
  EXPECT_EQ(mxv_tuples<grb::GpuSim>(a, x), mxv_tuples<grb::Sequential>(a, x));
}

// --------------------------------------------------------------------------
// Backend routing: grb::mxv records its selection in DeviceStats
// --------------------------------------------------------------------------

TEST(SpmvSelectBackend, MxvRecordsSelectionCounters) {
  auto& dev = gpu_sim::device();

  // Power-law => load-balanced, with a positive bytes-saved estimate.
  {
    const auto a = power_law(4096);
    auto ga = to_grb<grb::GpuSim>(a);
    grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.ncols, 1.0),
                                       0.0);
    grb::Vector<double, grb::GpuSim> w(a.nrows);
    const auto before = dev.stats();
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, ga, u, grb::Replace);
    const auto delta = dev.stats() - before;
    EXPECT_EQ(delta.kernel_selections[static_cast<std::size_t>(
                  SpmvKernelKind::kCsrLoadBalanced)],
              1u);
    EXPECT_GT(delta.spmv_bytes_saved_vs_baseline, 0u);
    EXPECT_EQ(delta.h2d_transfers, 0u);  // inspector reads device memory
  }

  // Banded => row-parallel scalar.
  {
    const auto a = banded(128);
    auto ga = to_grb<grb::GpuSim>(a);
    grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.ncols, 1.0),
                                       0.0);
    grb::Vector<double, grb::GpuSim> w(a.nrows);
    const auto before = dev.stats();
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, ga, u, grb::Replace);
    const auto delta = dev.stats() - before;
    EXPECT_EQ(delta.kernel_selections[static_cast<std::size_t>(
                  SpmvKernelKind::kCsrScalar)],
              1u);
  }
}

TEST(SpmvSelectBackend, VxmRecordsSelectionOnSkewedFrontier) {
  // A frontier concentrated on hub rows of a power-law matrix shows high
  // degree skew, so the push kernel's cost is modeled load-balanced.
  const auto a = power_law(4096);
  const auto ga = to_grb<grb::GpuSim>(a);
  grb::Vector<double, grb::GpuSim> u(std::vector<double>(a.nrows, 1.0), 0.0);
  grb::Vector<double, grb::GpuSim> w(a.ncols);
  auto& dev = gpu_sim::device();
  const auto before = dev.stats();
  grb::vxm(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, u, ga, grb::Replace);
  const auto delta = dev.stats() - before;
  EXPECT_EQ(delta.kernel_selections_total(), 1u);
  EXPECT_EQ(delta.kernel_selections[static_cast<std::size_t>(
                SpmvKernelKind::kCsrLoadBalanced)],
            1u);
}

}  // namespace
