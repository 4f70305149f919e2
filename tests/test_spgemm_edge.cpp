/// SpGEMM edge-case battery: shapes chosen to stress one boundary of the
/// adaptive engine at a time — a dense row among hyper-sparse rows (one
/// long-bin row dominating the expansion), a B whose referenced rows are
/// all empty (zero products despite nonzero operands), a single-column B
/// (maximum compression: every row folds to one output), row FLOPs pinned
/// to each load-balancing bin boundary, and hash tables run at a forced
/// worst-case 1.0 load factor, both unmasked (table exactly full at
/// completion) and mask-seeded (table entirely pre-filled with seeds).
/// The hash pass's host execution is checked counter for counter against a
/// replay of the modeled probe walk, and across pool worker counts.
/// Plus direct unit tests of the symbolic analysis, the table sizing, the
/// 64-bit overflow guard, and the selector's propose-then-ratify rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/triangle_count.hpp"
#include "gbtl/gbtl.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/spgemm_select.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;

struct Coo {
  IndexType nr = 0, nc = 0;
  IndexArrayType r, c;
  std::vector<double> v;
  void add(IndexType i, IndexType j, double val) {
    r.push_back(i);
    c.push_back(j);
    v.push_back(val);
  }
};

template <typename Tag>
grb::Matrix<double, Tag> to_matrix(const Coo& m) {
  grb::Matrix<double, Tag> out(m.nr, m.nc);
  if (!m.v.empty()) out.build(m.r, m.c, m.v);
  return out;
}

/// Sequential-backend reference product, then the GPU backend under every
/// strategy must match it tuple-for-tuple.
void expect_all_strategies_match(const Coo& a, const Coo& b) {
  grb::Matrix<double, grb::Sequential> want(a.nr, b.nc);
  grb::mxm(want, grb::NoMask{}, grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, to_matrix<grb::Sequential>(a),
           to_matrix<grb::Sequential>(b));
  IndexArrayType wr, wc;
  std::vector<double> wv;
  want.extractTuples(wr, wc, wv);

  const auto ga = to_matrix<grb::GpuSim>(a);
  const auto gb = to_matrix<grb::GpuSim>(b);
  for (const auto mode : {sparse::SpgemmMode::Esc, sparse::SpgemmMode::Hash,
                          sparse::SpgemmMode::Auto}) {
    sparse::SpgemmModeGuard guard(mode);
    grb::Matrix<double, grb::GpuSim> c(a.nr, b.nc);
    grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, ga, gb);
    IndexArrayType cr, cc;
    std::vector<double> cv;
    c.extractTuples(cr, cc, cv);
    const char* label = mode == sparse::SpgemmMode::Esc    ? "esc"
                        : mode == sparse::SpgemmMode::Hash ? "hash"
                                                           : "auto";
    EXPECT_EQ(cr, wr) << label;
    EXPECT_EQ(cc, wc) << label;
    EXPECT_EQ(cv, wv) << label;
  }
}

// --------------------------------------------------------------------------
// Shape edge cases
// --------------------------------------------------------------------------

// One dense row among hyper-sparse rows: row 0 of A holds all 64 columns
// while every other row holds one — the expansion is dominated by a single
// long-bin row (64 * nnz-per-B-row FLOPs) with 63 short-bin rows beside it.
TEST(SpgemmEdge, DenseRowAmongHypersparseRows) {
  constexpr IndexType n = 64;
  Coo a{n, n, {}, {}, {}};
  for (IndexType j = 0; j < n; ++j) a.add(0, j, 1.0 + static_cast<double>(j % 5));
  for (IndexType i = 1; i < n; ++i)
    a.add(i, (i * 7) % n, 2.0 - static_cast<double>(i % 3));
  Coo b{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i) {
    b.add(i, i, 1.0);
    b.add(i, (i * 13 + 1) % n, static_cast<double>(i % 4) - 2.0);
  }
  expect_all_strategies_match(a, b);
}

// Every B row that A references is empty: nonzero operands, zero partial
// products. Both pipelines must produce an empty C without tripping their
// zero-work paths (empty expansion buffer, zero-slot hash tables).
TEST(SpgemmEdge, AllReferencedBRowsEmpty) {
  constexpr IndexType n = 6;
  Coo a{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i) a.add(i, 1 + (i % (n - 1)), 3.0);
  Coo b{n, n, {}, {}, {}};
  b.add(0, 2, 5.0);  // row 0 is the only nonempty B row; A never reads it
  grb::Matrix<double, grb::GpuSim> expect_empty(n, n);
  const auto ga = to_matrix<grb::GpuSim>(a);
  const auto gb = to_matrix<grb::GpuSim>(b);
  for (const auto mode : {sparse::SpgemmMode::Esc, sparse::SpgemmMode::Hash,
                          sparse::SpgemmMode::Auto}) {
    sparse::SpgemmModeGuard guard(mode);
    grb::Matrix<double, grb::GpuSim> c(n, n);
    grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, ga, gb);
    EXPECT_EQ(c.nvals(), 0u);
  }
}

// Single-column B: the maximum-compression shape. Every partial product of
// an A row lands on the same output column, so est_nnz is one per nonempty
// row and compression equals the mean row degree.
TEST(SpgemmEdge, SingleColumnB) {
  constexpr IndexType n = 32;
  Coo a{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i)
    for (IndexType k = 0; k < 8; ++k)
      a.add(i, (i * 3 + k * 5) % n, 1.0 + static_cast<double>((i + k) % 4));
  Coo b{n, 1, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i)
    b.add(i, 0, static_cast<double>(i % 7) - 3.0);
  expect_all_strategies_match(a, b);
}

// Row FLOPs straddling each bin boundary: multiplying by the identity makes
// each A row's FLOP count equal its nnz, so rows of 31/32/33 and 511/512/513
// entries land exactly on either side of the short/medium and medium/long
// cuts. All three strategies must agree on the result.
TEST(SpgemmEdge, RowFlopsStraddleBinBoundaries) {
  constexpr IndexType kRowNnz[] = {31, 32, 33, 511, 512, 513};
  constexpr IndexType n = 520;
  Coo a{6, n, {}, {}, {}};
  for (IndexType i = 0; i < 6; ++i)
    for (IndexType k = 0; k < kRowNnz[i]; ++k)
      a.add(i, k, 1.0 + static_cast<double>((i + k) % 3));
  Coo b{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i) b.add(i, i, 2.0);
  expect_all_strategies_match(a, b);
}

// The same boundary rows, checked directly against the symbolic analysis:
// 31 and 32 are short, 33/511/512 medium, 513 long with ceil(513/256) = 3
// chunks.
TEST(SpgemmEdge, AnalyzeSpgemmBinsBoundaryRows) {
  const std::vector<sparse::Index> flops = {31, 32, 33, 511, 512, 513, 0};
  const std::vector<sparse::Index> caps = {31, 32, 33, 511, 512, 513, 0};
  const auto s =
      sparse::analyze_spgemm(flops.data(), caps.data(), 7, 600, false);
  EXPECT_EQ(s.total_products, 31u + 32u + 33u + 511u + 512u + 513u);
  EXPECT_EQ(s.nonempty_rows, 6u);
  EXPECT_EQ(s.short_rows, 2u);
  EXPECT_EQ(s.medium_rows, 3u);
  EXPECT_EQ(s.long_rows, 1u);
  EXPECT_EQ(s.long_row_chunks, 3u);
  EXPECT_EQ(s.max_row_flops, 513u);
  EXPECT_EQ(s.est_nnz, s.total_products);  // caps == flops here
}

// --------------------------------------------------------------------------
// Worst-case hash load factor
// --------------------------------------------------------------------------

// With the load target forced to 1.0 a dense 16x16 square sizes each row's
// table to exactly 16 slots for 16 distinct keys — the table is completely
// full when insertion finishes, so every probe chain must terminate by key
// match rather than by finding an empty slot.
TEST(SpgemmEdge, HashTableAtFullLoadFactor) {
  const double saved = sparse::spgemm_hash_load_target();
  sparse::spgemm_hash_load_target() = 1.0;
  constexpr IndexType n = 16;
  Coo a{n, n, {}, {}, {}};
  Coo b{n, n, {}, {}, {}};
  for (IndexType i = 0; i < n; ++i)
    for (IndexType j = 0; j < n; ++j) {
      a.add(i, j, 1.0 + static_cast<double>((i + 2 * j) % 5));
      b.add(i, j, static_cast<double>((3 * i + j) % 7) - 3.0);
    }
  expect_all_strategies_match(a, b);
  sparse::spgemm_hash_load_target() = saved;
}

// Mask-seeded variant at load 1.0: rows 0..7 carry a full-row mask, so each
// seeded table is pre-filled to capacity before any product arrives (16
// seeds in 16 slots); rows 8..15 have no allowed entries, so all their
// products must be counted as mask-avoided.
TEST(SpgemmEdge, SeededHashTableAtFullLoadFactor) {
  const double saved = sparse::spgemm_hash_load_target();
  sparse::spgemm_hash_load_target() = 1.0;
  constexpr IndexType n = 16;
  grb::Matrix<double, grb::GpuSim> a(n, n), b(n, n), mask(n, n);
  grb::Matrix<double, grb::Sequential> sa(n, n), sb(n, n), smask(n, n);
  IndexArrayType rows, cols, mrows, mcols;
  std::vector<double> avals, bvals, mvals;
  for (IndexType i = 0; i < n; ++i)
    for (IndexType j = 0; j < n; ++j) {
      rows.push_back(i);
      cols.push_back(j);
      avals.push_back(1.0 + static_cast<double>((i + 3 * j) % 4));
      bvals.push_back(static_cast<double>((2 * i + j) % 5) - 2.0);
      if (i < n / 2) {
        mrows.push_back(i);
        mcols.push_back(j);
        mvals.push_back(1.0);
      }
    }
  a.build(rows, cols, avals);
  b.build(rows, cols, bvals);
  mask.build(mrows, mcols, mvals);
  sa.build(rows, cols, avals);
  sb.build(rows, cols, bvals);
  smask.build(mrows, mcols, mvals);

  grb::Matrix<double, grb::Sequential> want(n, n);
  grb::mxm(want, grb::structure(smask), grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, sa, sb, grb::Replace);
  IndexArrayType wr, wc;
  std::vector<double> wv;
  want.extractTuples(wr, wc, wv);

  sparse::SpgemmModeGuard guard(sparse::SpgemmMode::Hash);
  const auto before = gpu_sim::device().stats();
  grb::Matrix<double, grb::GpuSim> c(n, n);
  grb::mxm(c, grb::structure(mask), grb::NoAccumulate{},
           grb::ArithmeticSemiring<double>{}, a, b, grb::Replace);
  const auto delta = gpu_sim::device().stats() - before;
  // Rows 8..15 contribute 8 rows x 256 products, all mask-avoided.
  EXPECT_GE(delta.spgemm_masked_products_avoided, 8u * 256u);
  IndexArrayType cr, cc;
  std::vector<double> cv;
  c.extractTuples(cr, cc, cv);
  EXPECT_EQ(cr, wr);
  EXPECT_EQ(cc, wc);
  EXPECT_EQ(cv, wv);
  sparse::spgemm_hash_load_target() = saved;
}

// --------------------------------------------------------------------------
// Counter-exact host execution
// --------------------------------------------------------------------------
//
// The hash numeric pass runs on the host as column-indexed lookups, not as
// the modeled per-product probe walk, but must report exactly the counters
// the walk would. The reference below replays that walk — same hash, same
// linear probing, same cap-step bound, seeds inserted in mask-row order —
// and each case checks the output and both counters against it, plus the
// simulated clock against the value the probe-walk implementation
// produced (the clock never depends on host execution).

struct Csr {
  IndexType nr = 0, nc = 0;
  std::vector<IndexType> offs, cols;
  std::vector<double> vals;
};

Csr to_csr(const Coo& m) {
  std::vector<std::tuple<IndexType, IndexType, double>> t;
  for (std::size_t k = 0; k < m.v.size(); ++k)
    t.emplace_back(m.r[k], m.c[k], m.v[k]);
  std::sort(t.begin(), t.end());
  Csr out{m.nr, m.nc, std::vector<IndexType>(m.nr + 1, 0), {}, {}};
  for (const auto& [i, j, v] : t) {
    ++out.offs[i + 1];
    out.cols.push_back(j);
    out.vals.push_back(v);
  }
  for (IndexType i = 0; i < m.nr; ++i) out.offs[i + 1] += out.offs[i];
  return out;
}

enum class MaskKind { kNone, kStructural, kValued, kComplement };

struct HashOutcome {
  IndexArrayType r, c;
  std::vector<double> v;
  std::uint64_t collisions = 0;
  std::uint64_t avoided = 0;
  double sim_s = 0.0;
};

/// The probe-walk hash pass with the mask write-back applied (C starts
/// empty, Replace): the output and counters the GPU backend must report.
HashOutcome reference_hash(const Coo& a_coo, const Coo& b_coo,
                           const Coo& mask_coo, MaskKind kind) {
  constexpr std::uint64_t kHashMult = 0x9E3779B97F4A7C15ull;
  const Csr a = to_csr(a_coo), b = to_csr(b_coo), m = to_csr(mask_coo);
  const bool seeded =
      kind == MaskKind::kStructural || kind == MaskKind::kValued;
  const auto allowed = [&](IndexType q) {
    return kind == MaskKind::kStructural || m.vals[q] != 0.0;
  };
  HashOutcome out;
  for (IndexType i = 0; i < a.nr; ++i) {
    IndexType flops = 0;
    for (IndexType p = a.offs[i]; p < a.offs[i + 1]; ++p)
      flops += b.offs[a.cols[p] + 1] - b.offs[a.cols[p]];
    if (flops == 0) continue;
    IndexType row_cap = std::min<IndexType>(flops, b.nc);
    if (seeded) {
      row_cap = 0;
      for (IndexType q = m.offs[i]; q < m.offs[i + 1]; ++q)
        row_cap += allowed(q);
    }
    const IndexType cap = sparse::hash_table_slots(row_cap);
    std::vector<IndexType> tk(cap);
    std::vector<double> tv(cap);
    std::vector<std::uint8_t> ts(cap, 0);
    const auto home = [&](IndexType j) {
      return static_cast<IndexType>((j * kHashMult) & (cap - 1));
    };
    if (seeded && cap > 0) {
      for (IndexType q = m.offs[i]; q < m.offs[i + 1]; ++q) {
        if (!allowed(q)) continue;
        IndexType slot = home(m.cols[q]);
        while (ts[slot] != 0) slot = (slot + 1) & (cap - 1);
        tk[slot] = m.cols[q];
        ts[slot] = 1;
      }
    }
    for (IndexType p = a.offs[i]; p < a.offs[i + 1]; ++p) {
      const IndexType k = a.cols[p];
      for (IndexType q = b.offs[k]; q < b.offs[k + 1]; ++q) {
        if (cap == 0) {
          ++out.avoided;
          continue;
        }
        const IndexType j = b.cols[q];
        const double prod = a.vals[p] * b.vals[q];
        IndexType slot = home(j);
        bool placed = false;
        for (IndexType step = 0; step < cap; ++step) {
          if (ts[slot] == 0) {
            if (!seeded) {
              tk[slot] = j;
              tv[slot] = prod;
              ts[slot] = 2;
              placed = true;
            }
            break;
          }
          if (tk[slot] == j) {
            tv[slot] = ts[slot] == 1 ? prod : tv[slot] + prod;
            ts[slot] = 2;
            placed = true;
            break;
          }
          ++out.collisions;
          slot = (slot + 1) & (cap - 1);
        }
        if (!placed && seeded) ++out.avoided;
      }
    }
    std::vector<std::pair<IndexType, double>> row;
    for (IndexType s = 0; s < cap; ++s)
      if (ts[s] == 2) row.emplace_back(tk[s], tv[s]);
    std::sort(row.begin(), row.end());
    for (const auto& [j, v] : row) {
      if (kind == MaskKind::kComplement) {
        bool masked_in = false;
        for (IndexType q = m.offs[i]; q < m.offs[i + 1]; ++q)
          masked_in |= m.cols[q] == j && m.vals[q] != 0.0;
        if (masked_in) continue;
      }
      out.r.push_back(i);
      out.c.push_back(j);
      out.v.push_back(v);
    }
  }
  if (!seeded) out.avoided = 0;  // only seeded tables drop products
  return out;
}

/// The GPU backend's forced-hash mxm on a fresh context.
HashOutcome gpu_hash(const Coo& a_coo, const Coo& b_coo, const Coo& mask_coo,
                     MaskKind kind) {
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  sparse::SpgemmModeGuard mode(sparse::SpgemmMode::Hash);
  const auto a = to_matrix<grb::GpuSim>(a_coo);
  const auto b = to_matrix<grb::GpuSim>(b_coo);
  const auto mask = to_matrix<grb::GpuSim>(mask_coo);
  grb::Matrix<double, grb::GpuSim> c(a_coo.nr, b_coo.nc);
  const grb::ArithmeticSemiring<double> sr;
  ctx.reset_stats();
  switch (kind) {
    case MaskKind::kNone:
      grb::mxm(c, grb::NoMask{}, grb::NoAccumulate{}, sr, a, b);
      break;
    case MaskKind::kStructural:
      grb::mxm(c, grb::structure(mask), grb::NoAccumulate{}, sr, a, b,
               grb::Replace);
      break;
    case MaskKind::kValued:
      grb::mxm(c, mask, grb::NoAccumulate{}, sr, a, b, grb::Replace);
      break;
    case MaskKind::kComplement:
      grb::mxm(c, grb::complement(mask), grb::NoAccumulate{}, sr, a, b,
               grb::Replace);
      break;
  }
  HashOutcome out;
  const auto st = ctx.stats();
  out.collisions = st.spgemm_hash_collisions;
  out.avoided = st.spgemm_masked_products_avoided;
  out.sim_s = ctx.simulated_time_s();
  EXPECT_EQ(st.spgemm_selections[static_cast<std::size_t>(
                gpu_sim::SpgemmStrategy::kHash)],
            1u);
  c.extractTuples(out.r, out.c, out.v);
  return out;
}

/// Deterministic pseudo-random pattern: row i holds row_nnz(i) distinct
/// columns; values are thirds so the fold order shows in the low bits.
template <typename RowNnz>
Coo random_coo(IndexType nr, IndexType nc, std::uint64_t seed, RowNnz row_nnz) {
  Coo m{nr, nc, {}, {}, {}};
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  const auto next = [&] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (IndexType i = 0; i < nr; ++i) {
    std::vector<bool> used(nc, false);
    const IndexType want = std::min<IndexType>(row_nnz(i), nc);
    for (IndexType got = 0; got < want;) {
      const IndexType j = next() % nc;
      if (used[j]) continue;
      used[j] = true;
      ++got;
      m.add(i, j, static_cast<double>(next() % 7 + 1) / 3.0);
    }
  }
  return m;
}

void expect_counter_exact(const Coo& a, const Coo& b, const Coo& mask,
                          MaskKind kind, double want_sim_s) {
  const HashOutcome want = reference_hash(a, b, mask, kind);
  const HashOutcome got = gpu_hash(a, b, mask, kind);
  EXPECT_EQ(got.r, want.r);
  EXPECT_EQ(got.c, want.c);
  EXPECT_EQ(got.v, want.v);
  EXPECT_EQ(got.collisions, want.collisions);
  EXPECT_EQ(got.avoided, want.avoided);
  EXPECT_EQ(got.sim_s, want_sim_s) << std::hexfloat << got.sim_s;
  EXPECT_GT(want.collisions, 0u);  // the case exercises probe chains
}

// Simulated seconds of each case, recorded from the probe-walk
// implementation on the default DeviceProperties.
constexpr double kSimUnseeded = 0x1.334a191ee9d94p-13;
constexpr double kSimSeeded = 0x1.639a9612823bbp-13;
constexpr double kSimValued = 0x1.63552d021fcd8p-13;
constexpr double kSimFullSeeded = 0x1.627078039d488p-13;
constexpr double kSimFullUnseeded = 0x1.314955c61b61bp-13;
constexpr double kSimEmptyMaskRows = 0x1.634f9c6c7570dp-13;
constexpr double kSimComplement = 0x1.333d49b533489p-13;
constexpr double kSimEmptyBUnseeded = 0x1.31e8e70564d58p-13;
constexpr double kSimEmptyBSeeded = 0x1.630677433996p-13;

/// Skewed operands reaching all three FLOP bins: a few heavy A rows, many
/// light ones.
Coo skewed_a(IndexType n, std::uint64_t seed) {
  return random_coo(n, n, seed, [](IndexType i) {
    return i % 17 == 0 ? IndexType{40} : 1 + i % 6;
  });
}

TEST(SpgemmCounterExact, UnseededRows) {
  constexpr IndexType n = 96;
  const Coo a = skewed_a(n, 1);
  const Coo b = random_coo(n, n, 2, [](IndexType i) { return 2 + i % 9; });
  expect_counter_exact(a, b, Coo{n, n, {}, {}, {}}, MaskKind::kNone,
                       kSimUnseeded);
}

TEST(SpgemmCounterExact, SeededRowsStructuralMask) {
  constexpr IndexType n = 96;
  const Coo a = skewed_a(n, 3);
  const Coo b = random_coo(n, n, 4, [](IndexType i) { return 2 + i % 9; });
  const Coo mask = random_coo(n, n, 5, [](IndexType i) { return 3 + i % 13; });
  expect_counter_exact(a, b, mask, MaskKind::kStructural, kSimSeeded);
}

// A valued mask: entries holding 0 are present but not allowed, so they
// are never seeded and the extraction walk must skip them.
TEST(SpgemmCounterExact, SeededRowsValuedMaskWithFalseEntries) {
  constexpr IndexType n = 96;
  const Coo a = skewed_a(n, 6);
  const Coo b = random_coo(n, n, 7, [](IndexType i) { return 2 + i % 9; });
  Coo mask = random_coo(n, n, 8, [](IndexType i) { return 4 + i % 11; });
  for (std::size_t k = 0; k < mask.v.size(); k += 3) mask.v[k] = 0.0;
  expect_counter_exact(a, b, mask, MaskKind::kValued, kSimValued);
}

// Load target 1.0 with 8 or 16 allowed columns per mask row: every seeded
// table is full before the first product, so each miss walks all cap
// slots and each hit wraps around the table.
TEST(SpgemmCounterExact, FullySeededTablesAtLoadOne) {
  const double saved = sparse::spgemm_hash_load_target();
  sparse::spgemm_hash_load_target() = 1.0;
  constexpr IndexType n = 64;
  const Coo a = random_coo(n, n, 9, [](IndexType i) { return 3 + i % 5; });
  const Coo b = random_coo(n, n, 10, [](IndexType i) { return 4 + i % 7; });
  const Coo mask = random_coo(n, n, 11, [](IndexType i) {
    return i % 2 == 0 ? IndexType{8} : IndexType{16};
  });
  expect_counter_exact(a, b, mask, MaskKind::kStructural, kSimFullSeeded);
  sparse::spgemm_hash_load_target() = saved;
}

TEST(SpgemmCounterExact, UnseededTablesAtLoadOne) {
  const double saved = sparse::spgemm_hash_load_target();
  sparse::spgemm_hash_load_target() = 1.0;
  constexpr IndexType n = 64;
  const Coo a = random_coo(n, n, 12, [](IndexType i) { return 3 + i % 5; });
  const Coo b = random_coo(n, n, 13, [](IndexType i) { return 4 + i % 7; });
  expect_counter_exact(a, b, Coo{n, n, {}, {}, {}}, MaskKind::kNone,
                       kSimFullUnseeded);
  sparse::spgemm_hash_load_target() = saved;
}

// Every third mask row is empty: those rows have products but cap == 0,
// so all of their products count as avoided without a table.
TEST(SpgemmCounterExact, EmptyMaskRows) {
  constexpr IndexType n = 96;
  const Coo a = skewed_a(n, 14);
  const Coo b = random_coo(n, n, 15, [](IndexType i) { return 2 + i % 9; });
  const Coo mask = random_coo(n, n, 16, [](IndexType i) {
    return i % 3 == 0 ? IndexType{0} : 5 + i % 7;
  });
  expect_counter_exact(a, b, mask, MaskKind::kStructural, kSimEmptyMaskRows);
}

// A complemented mask cannot seed: the rows run unseeded and the mask acts
// at write-back only.
TEST(SpgemmCounterExact, ComplementedMask) {
  constexpr IndexType n = 96;
  const Coo a = skewed_a(n, 17);
  const Coo b = random_coo(n, n, 18, [](IndexType i) { return 2 + i % 9; });
  const Coo mask = random_coo(n, n, 19, [](IndexType i) { return 3 + i % 13; });
  expect_counter_exact(a, b, mask, MaskKind::kComplement, kSimComplement);
}

// Half of B's rows are empty, so some A rows have nonzeros but no products
// (no table) and others have fewer products than A entries.
TEST(SpgemmCounterExact, EmptyBRows) {
  constexpr IndexType n = 96;
  const Coo a = skewed_a(n, 20);
  const Coo b = random_coo(n, n, 21, [](IndexType i) {
    return i % 2 == 0 ? IndexType{0} : 3 + i % 8;
  });
  const Coo mask = random_coo(n, n, 22, [](IndexType i) { return 3 + i % 13; });
  expect_counter_exact(a, b, Coo{n, n, {}, {}, {}}, MaskKind::kNone,
                       kSimEmptyBUnseeded);
  expect_counter_exact(a, b, mask, MaskKind::kStructural, kSimEmptyBSeeded);
}

// Pool workers run different rows of one launch at once, so the host
// scratch of the hash pass must be per thread. Masked triangle counting
// (seeded rows) and diag(u)·A (unseeded rows) on a 4-worker context must
// give the output and DeviceStats of a 1-worker context. The CI script
// also runs this case under ThreadSanitizer.
TEST(SpgemmHashWorkers, FourWorkerContextMatchesOneWorker) {
  using CountT = std::uint64_t;
  sparse::SpgemmModeGuard mode(sparse::SpgemmMode::Hash);
  sparse::BitModeGuard bits(sparse::BitMode::Off);
  const auto g = gbtl_graph::remove_self_loops(
      gbtl_graph::symmetrize(gbtl_graph::rmat(10, 8, 5)));
  const IndexType n = g.num_vertices;

  struct Run {
    IndexArrayType tr, tc, dr, dc;
    std::vector<CountT> tv;
    std::vector<double> dv;
    gpu_sim::DeviceStats stats;
  };
  const auto run = [&](std::size_t workers) {
    gpu_sim::Context ctx(gpu_sim::DeviceProperties{}, workers);
    gpu_sim::ScopedDevice bind(ctx);
    const auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
    grb::Matrix<CountT, grb::GpuSim> L(n, n);
    grb::apply(L, grb::NoMask{}, grb::NoAccumulate{},
               [](const double&) { return CountT{1}; },
               algorithms::lower_triangle(a));
    IndexArrayType idx(n);
    std::vector<double> uv(n);
    for (IndexType i = 0; i < n; ++i) {
      idx[i] = i;
      uv[i] = 1.0 / static_cast<double>(i + 3);
    }
    grb::Vector<double, grb::GpuSim> u(n);
    u.build(idx, uv);
    grb::Matrix<CountT, grb::GpuSim> tri(n, n);
    grb::Matrix<double, grb::GpuSim> scaled(n, n);
    ctx.reset_stats();
    grb::mxm(tri, grb::structure(L), grb::NoAccumulate{},
             grb::ArithmeticSemiring<CountT>{}, L, grb::transpose(L),
             grb::Replace);
    grb::mxm(scaled, grb::NoMask{}, grb::NoAccumulate{},
             grb::ArithmeticSemiring<double>{}, grb::diag(u), a, grb::Replace);
    Run r;
    r.stats = ctx.stats();
    tri.extractTuples(r.tr, r.tc, r.tv);
    scaled.extractTuples(r.dr, r.dc, r.dv);
    return r;
  };
  const Run one = run(1);
  const Run four = run(4);
  EXPECT_EQ(one.stats.spgemm_selections[static_cast<std::size_t>(
                gpu_sim::SpgemmStrategy::kHash)],
            2u);
  EXPECT_GT(one.stats.spgemm_masked_products_avoided, 0u);
  EXPECT_GT(one.tv.size(), 0u);
  EXPECT_EQ(four.tr, one.tr);
  EXPECT_EQ(four.tc, one.tc);
  EXPECT_EQ(four.tv, one.tv);
  EXPECT_EQ(four.dr, one.dr);
  EXPECT_EQ(four.dc, one.dc);
  EXPECT_EQ(four.dv, one.dv);
  const auto& s1 = one.stats;
  const auto& s4 = four.stats;
  EXPECT_EQ(s4.kernel_launches, s1.kernel_launches);
  EXPECT_EQ(s4.kernel_ops, s1.kernel_ops);
  EXPECT_EQ(s4.kernel_bytes_read, s1.kernel_bytes_read);
  EXPECT_EQ(s4.kernel_bytes_written, s1.kernel_bytes_written);
  EXPECT_EQ(s4.simulated_kernel_time_s, s1.simulated_kernel_time_s);
  EXPECT_EQ(s4.simulated_transfer_time_s, s1.simulated_transfer_time_s);
  EXPECT_EQ(s4.h2d_bytes, s1.h2d_bytes);
  EXPECT_EQ(s4.d2h_bytes, s1.d2h_bytes);
  EXPECT_EQ(s4.allocations, s1.allocations);
  EXPECT_EQ(s4.total_bytes_allocated, s1.total_bytes_allocated);
  EXPECT_EQ(s4.pool_hits, s1.pool_hits);
  EXPECT_EQ(s4.pool_misses, s1.pool_misses);
  EXPECT_EQ(s4.spgemm_selections, s1.spgemm_selections);
  EXPECT_EQ(s4.spgemm_hash_collisions, s1.spgemm_hash_collisions);
  EXPECT_EQ(s4.spgemm_hash_table_bytes, s1.spgemm_hash_table_bytes);
  EXPECT_EQ(s4.spgemm_masked_products_avoided,
            s1.spgemm_masked_products_avoided);
}

// --------------------------------------------------------------------------
// Table sizing
// --------------------------------------------------------------------------

TEST(SpgemmEdge, HashTableSlotsSizing) {
  EXPECT_EQ(sparse::hash_table_slots(0), 0u);
  // Default 0.5 load target: entries double then round to a power of two,
  // floored at kMinHashSlots.
  EXPECT_EQ(sparse::hash_table_slots(1), 8u);
  EXPECT_EQ(sparse::hash_table_slots(5), 16u);
  EXPECT_EQ(sparse::hash_table_slots(64), 128u);
  const double saved = sparse::spgemm_hash_load_target();
  sparse::spgemm_hash_load_target() = 1.0;
  EXPECT_EQ(sparse::hash_table_slots(16), 16u);  // exactly full permitted
  EXPECT_EQ(sparse::hash_table_slots(17), 32u);
  sparse::spgemm_hash_load_target() = saved;
}

// --------------------------------------------------------------------------
// Overflow guard
// --------------------------------------------------------------------------

TEST(SpgemmEdge, CheckedProductTotalSumsInBounds) {
  const std::vector<std::uint32_t> counts = {3, 4, 5};
  EXPECT_EQ(sparse::checked_product_total(counts.data(), counts.size(), "mxm"),
            12u);
}

// Mocked narrow index type: two uint32 counts whose sum exceeds 2^32 - 1
// must throw a diagnostic naming the op and the product count, because the
// expansion buffers could not be addressed with 32-bit offsets.
TEST(SpgemmEdge, CheckedProductTotalRejectsIndexOverflow) {
  const std::vector<std::uint32_t> counts = {0xFFFFFFFFu, 2u};
  try {
    sparse::checked_product_total(counts.data(), counts.size(), "mxm");
    FAIL() << "expected std::overflow_error";
  } catch (const std::overflow_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mxm"), std::string::npos) << msg;
    EXPECT_NE(msg.find("4294967297"), std::string::npos) << msg;
    EXPECT_NE(msg.find("32-bit"), std::string::npos) << msg;
  }
}

// 64-bit intra-accumulation wrap (only reachable with absurd synthetic
// counts, but the guard must not wrap silently).
TEST(SpgemmEdge, CheckedProductTotalRejectsAccumulatorWrap) {
  const std::vector<std::uint64_t> counts = {~std::uint64_t{0}, 2u};
  EXPECT_THROW(
      sparse::checked_product_total(counts.data(), counts.size(), "mxm"),
      std::overflow_error);
}

// --------------------------------------------------------------------------
// Selector rules
// --------------------------------------------------------------------------

sparse::SpgemmSymbolic synthetic(std::uint64_t products, std::uint64_t est,
                                 sparse::Index nrows, bool masked) {
  sparse::SpgemmSymbolic s;
  s.nrows = nrows;
  s.ncols = nrows;
  s.total_products = products;
  s.est_nnz = est;
  s.nonempty_rows = nrows;
  s.mean_row_flops =
      static_cast<double>(products) / static_cast<double>(nrows);
  s.max_row_flops = static_cast<sparse::Index>(s.mean_row_flops);
  if (s.max_row_flops <= sparse::kShortRowMaxFlops) {
    s.short_rows = nrows;
  } else if (s.max_row_flops <= sparse::kMediumRowMaxFlops) {
    s.medium_rows = nrows;
  } else {
    s.long_rows = nrows;
    s.long_row_chunks =
        nrows * (s.max_row_flops + sparse::kLongRowChunkFlops - 1) /
        sparse::kLongRowChunkFlops;
  }
  s.table_slots = 2 * est;
  s.masked = masked;
  return s;
}

TEST(SpgemmEdge, SelectorHonorsForcedModes) {
  const auto s = synthetic(1000, 1000, 10, false);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Esc),
            sparse::SpgemmStrategy::kEsc);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Hash),
            sparse::SpgemmStrategy::kHash);
}

TEST(SpgemmEdge, SelectorKeepsEscOnLowCompression) {
  // compression 1.0, unmasked, no skew: the hash path is never proposed.
  const auto s = synthetic(1'000'000, 1'000'000, 10'000, false);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kEsc);
}

TEST(SpgemmEdge, SelectorPicksHashOnHighCompressionAtScale) {
  // 50 products per output slot: ESC would sort 50x the surviving data.
  const auto s = synthetic(50'000'000, 1'000'000, 100'000, false);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kHash);
  // And the model agrees the pick is cheaper.
  EXPECT_LT(sparse::estimated_spgemm_time(sparse::SpgemmStrategy::kHash, s,
                                          sizeof(double),
                                          gpu_sim::device().properties()),
            sparse::estimated_spgemm_time(sparse::SpgemmStrategy::kEsc, s,
                                          sizeof(double),
                                          gpu_sim::device().properties()));
}

TEST(SpgemmEdge, SelectorRatificationRejectsHashOnTinyMaskedInputs) {
  // Masked => proposed, but at 64 products both pipelines are launch-bound
  // and ESC's shorter launch chain wins the roofline comparison.
  const auto s = synthetic(64, 16, 4, true);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kEsc);
}

TEST(SpgemmEdge, SelectorKeepsEscOnEmptyWork) {
  const auto s = synthetic(0, 0, 8, true);
  EXPECT_EQ(sparse::select_spgemm(s, sparse::SpgemmMode::Auto,
                                  &gpu_sim::device().properties()),
            sparse::SpgemmStrategy::kEsc);
}

}  // namespace
