/// Sparse-format substrate tests: conversions round-trip, and every host
/// format's SpMV agrees with the others and with the GpuSim backend's mxv
/// under both CSR schedules.

#include <gtest/gtest.h>

#include <random>

#include "gbtl/gbtl.hpp"
#include "sparse/engine_modes.hpp"
#include "sparse/formats.hpp"

namespace {

using sparse::Coo;
using sparse::Csc;
using sparse::Csr;
using sparse::Index;

Coo<double> example_coo() {
  // 4x5:
  // [1 . 2 . .]
  // [. . . . 3]
  // [. 4 . 5 .]
  // [. . . . .]
  Coo<double> a;
  a.nrows = 4;
  a.ncols = 5;
  a.row = {0, 0, 1, 2, 2};
  a.col = {0, 2, 4, 1, 3};
  a.val = {1, 2, 3, 4, 5};
  return a;
}

Coo<double> random_coo(Index n, Index m, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Index> pick(0, n - 1);
  std::uniform_real_distribution<double> w(-2.0, 2.0);
  Coo<double> a;
  a.nrows = a.ncols = n;
  for (Index k = 0; k < m; ++k) {
    a.row.push_back(pick(rng));
    a.col.push_back(pick(rng));
    a.val.push_back(w(rng));
  }
  return sparse::canonicalize(std::move(a));
}

std::vector<double> random_x(Index n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> w(-1.0, 1.0);
  std::vector<double> x(n);
  for (auto& v : x) v = w(rng);
  return x;
}

TEST(SparseFormats, CanonicalizeSortsAndCombinesDuplicates) {
  Coo<double> a;
  a.nrows = a.ncols = 3;
  a.row = {2, 0, 2, 0};
  a.col = {1, 2, 1, 2};
  a.val = {1, 5, 2, 7};
  auto c = sparse::canonicalize(std::move(a));
  ASSERT_EQ(c.nnz(), 2u);
  EXPECT_EQ(c.row[0], 0u);
  EXPECT_EQ(c.col[0], 2u);
  EXPECT_DOUBLE_EQ(c.val[0], 12.0);
  EXPECT_DOUBLE_EQ(c.val[1], 3.0);
}

TEST(SparseFormats, CooCsrRoundTrip) {
  auto coo = example_coo();
  auto csr = sparse::coo_to_csr(coo);
  EXPECT_EQ(csr.row_offsets,
            (std::vector<Index>{0, 2, 3, 5, 5}));
  auto back = sparse::csr_to_coo(csr);
  EXPECT_EQ(back.row, coo.row);
  EXPECT_EQ(back.col, coo.col);
  EXPECT_EQ(back.val, coo.val);
}

TEST(SparseFormats, CsrCscRoundTrip) {
  auto csr = sparse::coo_to_csr(example_coo());
  auto csc = sparse::csr_to_csc(csr);
  EXPECT_EQ(csc.col_offsets, (std::vector<Index>{0, 1, 2, 3, 4, 5}));
  auto back = sparse::csc_to_csr(csc);
  EXPECT_EQ(back.row_offsets, csr.row_offsets);
  EXPECT_EQ(back.col_indices, csr.col_indices);
  EXPECT_EQ(back.values, csr.values);
}

TEST(SparseSpmv, AllHostFormatsAgree) {
  auto coo = random_coo(64, 400, 1);
  auto csr = sparse::coo_to_csr(coo);
  auto csc = sparse::csr_to_csc(csr);
  auto x = random_x(64, 2);
  const auto y = sparse::spmv(csr, x);
  const auto y_coo = sparse::spmv(coo, x);
  const auto y_csc = sparse::spmv(csc, x);
  for (Index i = 0; i < 64; ++i) {
    EXPECT_NEAR(y[i], y_coo[i], 1e-12);
    EXPECT_NEAR(y[i], y_csc[i], 1e-12);
  }
}

TEST(SparseSpmv, DeviceKernelsMatchHost) {
  auto coo = random_coo(48, 300, 3);
  auto csr = sparse::coo_to_csr(coo);
  auto x = random_x(48, 4);
  const auto expect = sparse::spmv(csr, x);

  grb::Matrix<double, grb::GpuSim> a(48, 48);
  a.build(coo.row, coo.col, coo.val);
  const grb::Vector<double, grb::GpuSim> u(x, 0.0);
  for (const auto mode : {sparse::SpmvMode::ForceCsrScalar,
                          sparse::SpmvMode::ForceCsrLoadBalanced}) {
    sparse::SpmvModeGuard pin(mode);
    grb::Vector<double, grb::GpuSim> w(48);
    grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, a, u, grb::Replace);
    std::vector<double> y(48, 0.0);
    grb::IndexArrayType idx;
    std::vector<double> vals;
    w.extractTuples(idx, vals);
    for (std::size_t k = 0; k < idx.size(); ++k) y[idx[k]] = vals[k];
    for (Index i = 0; i < 48; ++i)
      EXPECT_NEAR(y[i], expect[i], 1e-12) << "mode " << static_cast<int>(mode);
  }
}

TEST(SparseSpmv, SizeMismatchThrows) {
  auto csr = sparse::coo_to_csr(example_coo());
  std::vector<double> wrong(3, 1.0);
  EXPECT_THROW(sparse::spmv(csr, wrong), std::invalid_argument);
}

}  // namespace
