/// Bit-format subsystem tests (sparse/bitmap.hpp + the three backends'
/// bit_ops): CSR -> Bit -> CSR round-trip identity on random boolean
/// matrices plus the ELL/HYB edge shapes (all-empty rows, one dense star
/// row), BitVector popcount-cache invalidate-on-write, the selector's
/// never-ratify-when-CSR-is-cheaper property, Sequential == CpuPar word
/// kernels under several worker counts, and forced-Bit == forced-CSR for
/// vxm/mxv (stored-false values included), BFS, and triangle counting on
/// the GPU backend — with the DeviceStats bit counters moving exactly when
/// the Bit engine is allowed to run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/triangle_count.hpp"
#include "backend_cpupar/bit_ops.hpp"
#include "backend_cpupar/pool.hpp"
#include "backend_sequential/bit_ops.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "sparse/bitmap.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;
using sparse::BitMatrix;
using sparse::BitMode;
using sparse::BitModeGuard;
using sparse::BitVector;
using sparse::Csr;
using sparse::Index;

/// Random boolean CSR: stored entries valued 0.0 or 1.0 (stored zeros keep
/// the truth plane distinct from the structure plane).
Csr<double> random_boolean_csr(Index nrows, Index ncols, double density,
                               double truthy, std::mt19937& rng) {
  Csr<double> a;
  a.nrows = nrows;
  a.ncols = ncols;
  a.row_offsets.assign(nrows + 1, 0);
  std::bernoulli_distribution keep(density);
  std::bernoulli_distribution truth(truthy);
  for (Index i = 0; i < nrows; ++i) {
    for (Index j = 0; j < ncols; ++j)
      if (keep(rng)) {
        a.col_indices.push_back(j);
        a.values.push_back(truth(rng) ? 1.0 : 0.0);
      }
    a.row_offsets[i + 1] = static_cast<Index>(a.col_indices.size());
  }
  return a;
}

void expect_csr_identity(const Csr<double>& a, const Csr<double>& b,
                         const char* what) {
  ASSERT_EQ(a.nrows, b.nrows) << what;
  ASSERT_EQ(a.ncols, b.ncols) << what;
  ASSERT_EQ(a.row_offsets, b.row_offsets) << what;
  ASSERT_EQ(a.col_indices, b.col_indices) << what;
  ASSERT_EQ(a.values, b.values) << what;
}

// --------------------------------------------------------------------------
// Round-trip identity
// --------------------------------------------------------------------------

TEST(BitmapRoundTrip, RandomBooleanMatricesAreIdentity) {
  std::mt19937 rng(20160501);
  for (int trial = 0; trial < 30; ++trial) {
    const Index nrows = 1 + rng() % 90;
    const Index ncols = 1 + rng() % 200;  // crosses several word boundaries
    const double density = 0.02 + 0.3 * (trial % 5) / 5.0;
    const double truthy = trial % 3 == 0 ? 1.0 : 0.7;  // some all-truthy
    const auto a = random_boolean_csr(nrows, ncols, density, truthy, rng);
    const auto back = sparse::bits_to_csr<double>(sparse::csr_to_bits(a));
    expect_csr_identity(a, back, "random boolean round trip");
  }
}

TEST(BitmapRoundTrip, AllEmptyRows) {
  Csr<double> a;
  a.nrows = 17;
  a.ncols = 130;
  a.row_offsets.assign(18, 0);
  const auto bm = sparse::csr_to_bits(a);
  EXPECT_EQ(bm.nnz(), 0u);
  expect_csr_identity(a, sparse::bits_to_csr<double>(bm), "all-empty rows");
}

TEST(BitmapRoundTrip, SingleDenseStarRow) {
  // The ELL-blowup star shape: one full row, everything else empty.
  Csr<double> a;
  a.nrows = 65;
  a.ncols = 65;
  a.row_offsets.assign(66, 0);
  for (Index j = 0; j < 65; ++j) {
    a.col_indices.push_back(j);
    a.values.push_back(1.0);
  }
  for (Index i = 1; i <= 65; ++i) a.row_offsets[i] = 65;
  const auto bm = sparse::csr_to_bits(a);
  EXPECT_EQ(bm.nnz(), 65u);
  EXPECT_TRUE(bm.all_truthy());
  expect_csr_identity(a, sparse::bits_to_csr<double>(bm), "star row");
}

TEST(BitmapRoundTrip, ZeroDimensioned) {
  Csr<double> a;
  a.nrows = 0;
  a.ncols = 0;
  a.row_offsets.assign(1, 0);
  expect_csr_identity(a, sparse::bits_to_csr<double>(sparse::csr_to_bits(a)),
                      "zero-dimensioned");
}

TEST(BitmapRoundTrip, StoredFalseSplitsThePlanes) {
  Csr<double> a;
  a.nrows = 1;
  a.ncols = 70;
  a.row_offsets = {0, 2};
  a.col_indices = {3, 68};  // second entry in the second word
  a.values = {0.0, 1.0};
  const auto bm = sparse::csr_to_bits(a);
  EXPECT_FALSE(bm.all_truthy());
  EXPECT_TRUE(bm.test(0, 3));
  EXPECT_FALSE(bm.test_truth(0, 3));
  EXPECT_TRUE(bm.test_truth(0, 68));
  expect_csr_identity(a, sparse::bits_to_csr<double>(bm), "stored false");
}

// --------------------------------------------------------------------------
// BitVector popcount cache
// --------------------------------------------------------------------------

TEST(BitVectorCache, PopcountSurvivesInvalidateOnWrite) {
  BitVector v(200);
  EXPECT_TRUE(v.popcount_cached());  // fresh all-zero bitmap: count 0
  EXPECT_EQ(v.popcount(), 0u);

  v.set(0);
  v.set(63);
  v.set(64);
  v.set(199);
  EXPECT_FALSE(v.popcount_cached());  // set() dirtied the cache
  EXPECT_EQ(v.popcount(), 4u);
  EXPECT_TRUE(v.popcount_cached());  // recount cached again
  EXPECT_EQ(v.popcount(), 4u);

  v.reset(63);
  EXPECT_FALSE(v.popcount_cached());
  EXPECT_EQ(v.popcount(), 3u);

  // Raw word access is a structural write even if nothing changes.
  (void)v.mutable_words();
  EXPECT_FALSE(v.popcount_cached());
  EXPECT_EQ(v.popcount(), 3u);

  v.mutable_words()[1] |= 1ull;  // bit 64 already set: count unchanged
  EXPECT_EQ(v.popcount(), 3u);

  v.clear();
  EXPECT_TRUE(v.popcount_cached());
  EXPECT_EQ(v.popcount(), 0u);
}

// --------------------------------------------------------------------------
// Selector properties
// --------------------------------------------------------------------------

TEST(BitSelector, AutoNeverRatifiesWhenCsrIsCheaper) {
  const gpu_sim::DeviceProperties props;
  std::mt19937 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    sparse::BitTraversalShape s;
    s.n = 1 + rng() % 100000;
    s.dest_rows = 1 + rng() % s.n;
    const std::uint64_t cells = s.n * s.dest_rows;
    s.nnz = 1 + rng() % std::max<std::uint64_t>(cells / 2, 1);
    s.frontier_rows = 1 + rng() % s.n;
    s.planes = 1 + rng() % 2;
    s.view_cached = rng() % 2 == 0;
    const double csr_time =
        std::uniform_real_distribution<double>(1e-7, 1e-2)(rng);
    double bit_time = 0.0;
    const bool took = sparse::select_bit_traversal(BitMode::Auto, s, csr_time,
                                                   props, &bit_time);
    if (took) {
      // Ratified => the model must actually predict a win.
      EXPECT_LT(bit_time, csr_time) << "trial " << trial;
      // ...and the density floor must have been cleared.
      const double density =
          static_cast<double>(s.nnz) /
          (static_cast<double>(s.n) * static_cast<double>(s.dest_rows));
      EXPECT_GE(density, sparse::kBitDensityThreshold) << "trial " << trial;
    }
    // Force/Off are unconditional either way.
    EXPECT_TRUE(
        sparse::select_bit_traversal(BitMode::Force, s, csr_time, props));
    EXPECT_FALSE(
        sparse::select_bit_traversal(BitMode::Off, s, csr_time, props));
  }
}

TEST(BitSelector, AutoRatifiesDenseTraversalOverSlowCsr) {
  // A genuinely dense shape with an expensive CSR alternative must be
  // taken — the selector is not allowed to be vacuously "never Bit".
  const gpu_sim::DeviceProperties props;
  sparse::BitTraversalShape s;
  s.n = 1 << 14;
  s.dest_rows = s.n;
  s.nnz = s.n * 256;  // density 1/64, above the 1/128 floor
  s.frontier_rows = s.n / 2;
  s.planes = 1;
  s.view_cached = true;
  double bit_time = 0.0;
  EXPECT_TRUE(sparse::select_bit_traversal(BitMode::Auto, s, /*csr=*/1.0,
                                           props, &bit_time));
  EXPECT_LT(bit_time, 1.0);
}

TEST(BitSelector, MxmAutoRequiresBothDensitiesAndAWin) {
  const gpu_sim::DeviceProperties props;
  // Dense operands, expensive SpGEMM: ratified.
  EXPECT_TRUE(sparse::select_bit_mxm(BitMode::Auto, /*allowed=*/10000,
                                     /*inner=*/4096, /*nnz_a=*/4096 * 512,
                                     /*nnz_b=*/4096 * 512, 4096, 4096,
                                     /*views_cached=*/true, /*csr=*/1.0,
                                     props));
  // One sparse operand kills the proposal regardless of the CSR price.
  EXPECT_FALSE(sparse::select_bit_mxm(BitMode::Auto, 10000, 4096, 4096 * 512,
                                      /*nnz_b=*/4096, 4096, 4096, true, 1.0,
                                      props));
  // A cheap CSR alternative is never beaten to zero.
  EXPECT_FALSE(sparse::select_bit_mxm(BitMode::Auto, 10000, 4096, 4096 * 512,
                                      4096 * 512, 4096, 4096, true,
                                      /*csr=*/0.0, props));
  EXPECT_TRUE(sparse::select_bit_mxm(BitMode::Force, 1, 1, 1, 1, 1, 1, false,
                                     0.0, props));
  EXPECT_FALSE(sparse::select_bit_mxm(BitMode::Off, 10000, 4096, 4096 * 512,
                                      4096 * 512, 4096, 4096, true, 1.0,
                                      props));
}

// --------------------------------------------------------------------------
// Sequential == CpuPar word kernels, any worker count
// --------------------------------------------------------------------------

TEST(BitKernelsCpuPar, MatchSequentialUnderAnyWorkerCount) {
  std::mt19937 rng(31);
  const Index n = 300;  // several 8-word stride blocks
  const auto acsr = random_boolean_csr(n, n, 0.08, 0.7, rng);
  const auto a = sparse::csr_to_bits(acsr);

  BitVector upres(n), utruth(n);
  for (Index i = 0; i < n; ++i)
    if (rng() % 3 == 0) {
      upres.set(i);
      if (rng() % 4 != 0) utruth.set(i);
    }
  BitVector mask(n);
  for (Index i = 0; i < n; ++i)
    if (rng() % 2 == 0) mask.set(i);

  // Sequential reference.
  BitVector sp_mxv(n), st_mxv(n), sp_vxm(n), st_vxm(n), s_app(n);
  grb::seq_backend::bit_mxv(a, upres, utruth, sp_mxv, st_mxv);
  grb::seq_backend::bit_vxm(upres, utruth, a, sp_vxm, st_vxm);
  grb::seq_backend::bit_masked_apply(sp_vxm, mask, /*complement=*/true,
                                     s_app);
  const auto bt = sparse::csr_to_bits(random_boolean_csr(n, n, 0.08, 1.0,
                                                         rng));
  const auto mcsr = random_boolean_csr(n, n, 0.1, 1.0, rng);
  const auto m = sparse::csr_to_bits(mcsr);
  const auto s_mxm =
      grb::seq_backend::bit_masked_mxm_popcount<double>(a, bt, m);

  for (const std::size_t workers : {1u, 3u, 8u}) {
    gpu_sim::ThreadPool pool(workers);
    grb::cpupar_backend::ScopedPool bind(pool);

    BitVector pp_mxv(n), pt_mxv(n), pp_vxm(n), pt_vxm(n), p_app(n);
    grb::cpupar_backend::bit_mxv(a, upres, utruth, pp_mxv, pt_mxv);
    grb::cpupar_backend::bit_vxm(upres, utruth, a, pp_vxm, pt_vxm);
    grb::cpupar_backend::bit_masked_apply(pp_vxm, mask, true, p_app);
    const auto p_mxm =
        grb::cpupar_backend::bit_masked_mxm_popcount<double>(a, bt, m);

    for (Index w = 0; w < sp_mxv.word_count(); ++w) {
      EXPECT_EQ(pp_mxv.words()[w], sp_mxv.words()[w]) << workers << " w" << w;
      EXPECT_EQ(pt_mxv.words()[w], st_mxv.words()[w]) << workers << " w" << w;
      EXPECT_EQ(pp_vxm.words()[w], sp_vxm.words()[w]) << workers << " w" << w;
      EXPECT_EQ(pt_vxm.words()[w], st_vxm.words()[w]) << workers << " w" << w;
      EXPECT_EQ(p_app.words()[w], s_app.words()[w]) << workers << " w" << w;
    }
    EXPECT_EQ(p_mxm.row_offsets, s_mxm.row_offsets) << workers;
    EXPECT_EQ(p_mxm.col_indices, s_mxm.col_indices) << workers;
    EXPECT_EQ(p_mxm.values, s_mxm.values) << workers;
  }
}

TEST(BitKernelsSeq, TruthNeverEscapesStructure) {
  std::mt19937 rng(41);
  const Index n = 150;
  const auto a =
      sparse::csr_to_bits(random_boolean_csr(n, n, 0.1, 0.5, rng));
  BitVector upres(n), utruth(n);
  for (Index i = 0; i < n; ++i)
    if (rng() % 2 == 0) {
      upres.set(i);
      if (rng() % 2 == 0) utruth.set(i);
    }
  BitVector op(n), ot(n);
  grb::seq_backend::bit_mxv(a, upres, utruth, op, ot);
  for (Index i = 0; i < n; ++i)
    if (ot.test(i)) {
      EXPECT_TRUE(op.test(i)) << "truth outside presence at " << i;
    }
}

// --------------------------------------------------------------------------
// GPU backend: forced-Bit == forced-CSR, counters move as promised
// --------------------------------------------------------------------------

/// Directed boolean graph with some stored-false edges on the GpuSim
/// backend; values 0/1 keep every fold exact.
grb::Matrix<double, grb::GpuSim> gpu_graph(Index n, double density,
                                           double truthy, unsigned seed) {
  std::mt19937 rng(seed);
  IndexArrayType r, c;
  std::vector<double> v;
  std::bernoulli_distribution keep(density);
  std::bernoulli_distribution truth(truthy);
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      if (keep(rng)) {
        r.push_back(i);
        c.push_back(j);
        v.push_back(truth(rng) ? 1.0 : 0.0);
      }
  grb::Matrix<double, grb::GpuSim> a(n, n);
  a.build(r, c, v);
  return a;
}

grb::Vector<double, grb::GpuSim> gpu_vec(Index n, double density,
                                         double truthy, unsigned seed) {
  std::mt19937 rng(seed);
  IndexArrayType idx;
  std::vector<double> vals;
  std::bernoulli_distribution keep(density);
  std::bernoulli_distribution truth(truthy);
  for (Index i = 0; i < n; ++i)
    if (keep(rng)) {
      idx.push_back(i);
      vals.push_back(truth(rng) ? 1.0 : 0.0);
    }
  grb::Vector<double, grb::GpuSim> u(n);
  u.build(idx, vals);
  return u;
}

void expect_same_stored(const grb::Vector<double, grb::GpuSim>& a,
                        const grb::Vector<double, grb::GpuSim>& b,
                        const char* what) {
  IndexArrayType ai, bi;
  std::vector<double> av, bv;
  a.extractTuples(ai, av);
  b.extractTuples(bi, bv);
  EXPECT_EQ(ai, bi) << what << ": stored pattern";
  EXPECT_EQ(av, bv) << what << ": stored values";
}

/// Run @p op under @p mode and return the bit selections it made. The
/// stats are read after the guard's scope has closed: an op recorded for
/// lazy fusion must still have executed under the pinned mode.
template <typename F>
std::uint64_t bit_selections_under(BitMode mode, F&& op) {
  const auto before = gpu_sim::device().stats();
  {
    BitModeGuard guard(mode);
    op();
  }
  return (gpu_sim::device().stats() - before).bit_selections;
}

TEST(BitGpu, ForcedBitMatchesForcedCsrForTraversals) {
  for (unsigned seed = 1; seed <= 6; ++seed) {
    const Index n = 60 + 17 * seed;  // crosses word boundaries
    auto a = gpu_graph(n, 0.15, seed % 2 ? 0.7 : 1.0, seed);
    auto u = gpu_vec(n, 0.4, 0.8, seed + 100);

    grb::Vector<double, grb::GpuSim> w_csr(n), w_bit(n);
    EXPECT_EQ(bit_selections_under(BitMode::Off, [&] {
                grb::vxm(w_csr, grb::NoMask{}, grb::NoAccumulate{},
                         grb::LogicalSemiring<double>{}, u, a, grb::Replace);
              }),
              0u);
    EXPECT_GT(bit_selections_under(BitMode::Force, [&] {
                grb::vxm(w_bit, grb::NoMask{}, grb::NoAccumulate{},
                         grb::LogicalSemiring<double>{}, u, a, grb::Replace);
              }),
              0u);
    expect_same_stored(w_csr, w_bit, "vxm");

    grb::Vector<double, grb::GpuSim> y_csr(n), y_bit(n);
    EXPECT_EQ(bit_selections_under(BitMode::Off, [&] {
                grb::mxv(y_csr, grb::NoMask{}, grb::NoAccumulate{},
                         grb::LogicalSemiring<double>{}, a, u, grb::Replace);
              }),
              0u);
    EXPECT_GT(bit_selections_under(BitMode::Force, [&] {
                grb::mxv(y_bit, grb::NoMask{}, grb::NoAccumulate{},
                         grb::LogicalSemiring<double>{}, a, u, grb::Replace);
              }),
              0u);
    expect_same_stored(y_csr, y_bit, "mxv");
  }
}

TEST(BitGpu, ForcedBitMatchesForcedCsrUnderMasks) {
  const Index n = 90;
  auto a = gpu_graph(n, 0.2, 0.8, 11);
  auto u = gpu_vec(n, 0.5, 0.9, 12);
  auto m = gpu_vec(n, 0.5, 0.6, 13);

  for (int variant = 0; variant < 3; ++variant) {
    grb::Vector<double, grb::GpuSim> w_csr(n), w_bit(n);
    auto run = [&](grb::Vector<double, grb::GpuSim>& w) {
      switch (variant) {
        case 0:
          grb::vxm(w, m, grb::NoAccumulate{}, grb::LogicalSemiring<double>{},
                   u, a, grb::Replace);
          break;
        case 1:
          grb::vxm(w, grb::complement(grb::structure(m)), grb::NoAccumulate{},
                   grb::LogicalSemiring<double>{}, u, a, grb::Replace);
          break;
        default:
          grb::vxm(w, grb::structure(m), grb::Plus<double>{},
                   grb::LogicalSemiring<double>{}, u, a, grb::Merge);
          break;
      }
    };
    EXPECT_EQ(bit_selections_under(BitMode::Off, [&] { run(w_csr); }), 0u)
        << "variant " << variant;
    EXPECT_GT(bit_selections_under(BitMode::Force, [&] { run(w_bit); }), 0u)
        << "variant " << variant;
    expect_same_stored(w_csr, w_bit, "masked vxm variant");
  }
}

TEST(BitGpu, ForcedBitBfsAndTrianglesMatchForcedCsr) {
  const auto g = gbtl_graph::rmat(8, 8, 20160501);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  const Index n = a.nrows();

  grb::Vector<IndexType, grb::GpuSim> levels_csr(n), levels_bit(n);
  {
    BitModeGuard off(BitMode::Off);
    algorithms::bfs_level(a, 0, levels_csr);
  }
  const auto before = gpu_sim::device().stats();
  {
    BitModeGuard force(BitMode::Force);
    algorithms::bfs_level(a, 0, levels_bit);
  }
  const auto delta = gpu_sim::device().stats() - before;
  EXPECT_GT(delta.bit_selections, 0u);
  EXPECT_GT(delta.bit_conversions, 0u);
  EXPECT_GT(delta.bit_words_touched, 0u);

  IndexArrayType ic, ib;
  std::vector<IndexType> vc, vb;
  levels_csr.extractTuples(ic, vc);
  levels_bit.extractTuples(ib, vb);
  EXPECT_EQ(ic, ib) << "bfs reached set";
  EXPECT_EQ(vc, vb) << "bfs levels";

  // Symmetric loop-free graph for triangles.
  const auto gs = gbtl_graph::symmetrize(
      gbtl_graph::remove_self_loops(gbtl_graph::rmat(7, 8, 7)));
  auto sym = gbtl_graph::to_matrix<double, grb::GpuSim>(gs);
  std::uint64_t t_csr = 0, t_bit = 0;
  {
    BitModeGuard off(BitMode::Off);
    t_csr = algorithms::triangle_count_masked(sym);
  }
  {
    BitModeGuard force(BitMode::Force);
    t_bit = algorithms::triangle_count_masked(sym);
  }
  EXPECT_EQ(t_csr, t_bit) << "triangle count";
}

TEST(BitGpu, OffModeNeverTouchesBitCounters) {
  BitModeGuard off(BitMode::Off);
  const auto before = gpu_sim::device().stats();
  auto a = gpu_graph(80, 0.3, 1.0, 21);
  auto u = gpu_vec(80, 0.5, 1.0, 22);
  grb::Vector<double, grb::GpuSim> w(80);
  grb::vxm(w, grb::NoMask{}, grb::NoAccumulate{},
           grb::LogicalSemiring<double>{}, u, a, grb::Replace);
  grb::Vector<IndexType, grb::GpuSim> levels(80);
  algorithms::bfs_level(a, 0, levels);
  const auto delta = gpu_sim::device().stats() - before;
  EXPECT_EQ(delta.bit_selections, 0u);
  EXPECT_EQ(delta.bit_words_touched, 0u);
  EXPECT_EQ(delta.bit_conversions, 0u);
}

}  // namespace
