/// Counter-exact pins of the GpuSim traversal paths: mxv and vxm under each
/// forced SpMV schedule, direction and bit mode, the GpuShard mxv/vxm at 2
/// and 4 shards over two contexts, and mxv_overlay/vxm_overlay with dirty
/// rows. Every case records its output (stored count and a digest of the
/// indices and value bit patterns) plus the DeviceStats fields a traversal
/// moves: launches, ops, bytes, simulated kernel and transfer seconds,
/// kernel and direction selections, pull early exits, the bit-engine
/// counters and the halo exchange. The expected strings were recorded from
/// the per-path kernels that preceded the shared traversal core
/// (backend_gpu/ops.hpp, detail namespace); any drift in the simulated
/// clock or in a fold's combination order shows here as a string diff.
///
/// TraversalWorkers checks that a multi-worker context, whose pool threads
/// run the blocks of one launch, gives the output and counters of a
/// 1-worker context. The CI script also runs it under ThreadSanitizer.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "gbtl/gbtl.hpp"
#include "gbtl/overlay.hpp"
#include "gbtl/overlay_ops.hpp"
#include "gpu_sim/placement.hpp"
#include "graph/generators.hpp"
#include "sparse/bitmap.hpp"
#include "sparse/fusion_plan.hpp"
#include "sparse/shard_plan.hpp"
#include "sparse/spmv_select.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;
using LbChunkGuard = sparse::ModeGuard<&sparse::EngineModes::lb_chunk>;

/// Deduplicated power-law R-MAT (2^scale vertices, edge factor 8). Each
/// value is a function of its cell, a third or so, so fold order shows in
/// the low bits.
struct Graph {
  IndexType n = 0;
  IndexArrayType r, c;
  std::vector<double> v;
};

Graph power_law(unsigned scale = 8) {
  const auto g = gbtl_graph::rmat(scale, 8, 3);
  Graph out;
  out.n = g.num_vertices;
  for (IndexType e = 0; e < g.num_edges(); ++e) {
    const IndexType i = g.src[e], j = g.dst[e];
    out.r.push_back(i);
    out.c.push_back(j);
    out.v.push_back(static_cast<double>((i * 7 + j * 3) % 11 + 1) / 3.0);
  }
  return out;
}

template <typename Tag>
grb::Matrix<double, Tag> matrix(const Graph& g) {
  grb::Matrix<double, Tag> a(g.n, g.n);
  a.build(g.r, g.c, g.v, grb::Second<double>{});
  return a;
}

/// Input vector: vertex 0 (the R-MAT hub) and every fifth vertex from 1.
template <typename Tag>
grb::Vector<double, Tag> input(IndexType n) {
  IndexArrayType idx;
  std::vector<double> val;
  for (IndexType k = 0; k < n; ++k)
    if (k == 0 || k % 5 == 1) {
      idx.push_back(k);
      val.push_back(1.0 / static_cast<double>(k + 3));
    }
  grb::Vector<double, Tag> u(n);
  u.build(idx, val);
  return u;
}

/// Valued output mask: present on two thirds of the vertices, holding 0 on
/// half of those.
template <typename Tag>
grb::Vector<std::uint8_t, Tag> out_mask(IndexType n) {
  IndexArrayType idx;
  std::vector<std::uint8_t> val;
  for (IndexType i = 0; i < n; ++i)
    if (i % 3 != 0) {
      idx.push_back(i);
      val.push_back(static_cast<std::uint8_t>(i % 2));
    }
  grb::Vector<std::uint8_t, Tag> m(n);
  m.build(idx, val);
  return m;
}

/// Two dirty rows replaced by new content and one deleted (empty).
grb::MatrixOverlay<double> overlay(IndexType n) {
  grb::MatrixOverlay<double> ov;
  for (const IndexType row : {IndexType{0}, IndexType{7}, IndexType{40}}) {
    ov.rows.push_back(row);
    if (row != 7)
      for (IndexType j = row % 4; j < n; j += 9) {
        ov.cols.push_back(j);
        ov.vals.push_back(static_cast<double>(j % 5 + 2) / 7.0);
      }
    ov.offsets.push_back(ov.cols.size());
  }
  return ov;
}

template <typename T, typename Tag>
std::string describe_output(const grb::Vector<T, Tag>& w) {
  IndexArrayType idx;
  std::vector<T> val;
  w.extractTuples(idx, val);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over (index, bits)
  const auto mix = [&](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t k = 0; k < idx.size(); ++k) {
    mix(idx[k]);
    mix(std::bit_cast<std::uint64_t>(static_cast<double>(val[k])));
  }
  std::ostringstream s;
  s << "out " << idx.size() << " " << std::hex << h;
  return s.str();
}

std::string describe_stats(const gpu_sim::DeviceStats& s) {
  std::ostringstream o;
  o << std::hexfloat << "k " << s.kernel_launches << " " << s.kernel_ops
    << " " << s.kernel_bytes_read << " " << s.kernel_bytes_written << " "
    << s.simulated_kernel_time_s << " t " << s.simulated_transfer_time_s
    << " sel " << s.kernel_selections[0] << " " << s.kernel_selections[1]
    << " dir " << s.direction_selections[0] << " "
    << s.direction_selections[1] << " exit " << s.pull_early_exit_rows
    << " bit " << s.bit_selections << " " << s.bit_words_touched << " "
    << s.bit_conversions << " halo " << s.halo_bytes_exchanged << " "
    << s.halo_seconds_hidden;
  return o.str();
}

enum class Op { kMxv, kVxm, kMxvOverlay, kVxmOverlay };

/// One GpuSim traversal on a fresh context: unmasked, then masked with
/// Replace, each described as output plus the op's own counters (operand
/// uploads are outside the window; lazy CSC and bit views are inside).
template <typename SR>
std::vector<std::string> run_gpusim(Op op, SR sr) {
  const Graph g = power_law();
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  sparse::FusionGuard eager(sparse::FusionMode::Off);
  std::vector<std::string> got;
  for (const bool masked : {false, true}) {
    const auto a = matrix<grb::GpuSim>(g);
    const auto u = input<grb::GpuSim>(g.n);
    const auto m = out_mask<grb::GpuSim>(g.n);
    const auto ov = overlay(g.n);
    grb::Vector<double, grb::GpuSim> w(g.n);
    ctx.reset_stats();
    const auto call = [&](const auto& mask) {
      switch (op) {
        case Op::kMxv:
          grb::mxv(w, mask, grb::NoAccumulate{}, sr, a, u, grb::Replace);
          break;
        case Op::kVxm:
          grb::vxm(w, mask, grb::NoAccumulate{}, sr, u, a, grb::Replace);
          break;
        case Op::kMxvOverlay:
          grb::mxv_overlay(w, mask, grb::NoAccumulate{}, sr, a, ov, u,
                           grb::Replace);
          break;
        case Op::kVxmOverlay:
          grb::vxm_overlay(w, mask, grb::NoAccumulate{}, sr, u, a, ov,
                           grb::Replace);
          break;
      }
    };
    if (masked)
      call(m);
    else
      call(grb::NoMask{});
    const auto stats = ctx.stats();
    got.push_back(describe_output(w) + " | " + describe_stats(stats));
  }
  return got;
}

/// One GpuShard mxv or vxm at @p shards over a two-context placement; the
/// description carries the home and the second context's counters. The
/// window includes the lazy shard build.
std::vector<std::string> run_sharded(bool vxm, std::size_t shards) {
  const Graph g = power_law();
  gpu_sim::Context home, second;
  gpu_sim::ScopedDevice bind(home);
  gpu_sim::ScopedPlacement place({&home, &second});
  sparse::FusionGuard eager(sparse::FusionMode::Off);
  sparse::ShardCountGuard pin(shards);
  const grb::ArithmeticSemiring<double> sr;
  std::vector<std::string> got;
  for (const bool masked : {false, true}) {
    const auto a = matrix<grb::GpuShard>(g);
    const auto u = input<grb::GpuShard>(g.n);
    const auto m = out_mask<grb::GpuShard>(g.n);
    grb::Vector<double, grb::GpuShard> w(g.n);
    home.reset_stats();
    second.reset_stats();
    const auto call = [&](const auto& mask) {
      if (vxm)
        grb::vxm(w, mask, grb::NoAccumulate{}, sr, u, a, grb::Replace);
      else
        grb::mxv(w, mask, grb::NoAccumulate{}, sr, a, u, grb::Replace);
    };
    if (masked)
      call(m);
    else
      call(grb::NoMask{});
    const auto hs = home.stats();
    const auto ss = second.stats();
    got.push_back(describe_output(w) + " | " + describe_stats(hs) + " || " +
                  describe_stats(ss));
  }
  return got;
}

void expect_records(const std::vector<std::string>& got,
                    const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(got[k], want[k]) << (k == 0 ? "unmasked" : "masked");
}

const grb::ArithmeticSemiring<double> kArith;
const grb::LogicalSemiring<double> kLogical;

TEST(TraversalCounterExact, MxvCsrScalar) {
  sparse::SpmvModeGuard spmv(sparse::SpmvMode::ForceCsrScalar);
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePull);
  expect_records(run_gpusim(Op::kMxv, kArith), {
      "out 129 9fdd5669a7a5b326 | "
      "k 5 20097 240976 5184 0x1.04a2e08d53d3p-15 t 0x0p+0"
      " sel 1 0 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 34 c08e525e41b8b846 | "
      "k 5 20097 241488 5184 0x1.04a7a85b36ed6p-15 t 0x0p+0"
      " sel 1 0 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, MxvCsrLoadBalancedChunk3) {
  sparse::SpmvModeGuard spmv(sparse::SpmvMode::ForceCsrLoadBalanced);
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePull);
  LbChunkGuard chunk(3);
  expect_records(run_gpusim(Op::kMxv, kArith), {
      "out 129 4ccfe52a984f781c | "
      "k 6 16443 94907 31028 0x1.32954082b0057p-15 t 0x0p+0"
      " sel 0 1 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 34 c08e525e41b8b846 | "
      "k 6 16443 95419 31028 0x1.329a0850931fdp-15 t 0x0p+0"
      " sel 0 1 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, MxvPush) {
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePush);
  expect_records(run_gpusim(Op::kMxv, kArith), {
      "out 129 9fdd5669a7a5b326 | "
      "k 15 19546 210832 166008 0x1.805c05260f168p-14 t 0x0p+0"
      " sel 0 0 dir 1 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 34 c08e525e41b8b846 | "
      "k 15 19546 211344 166008 0x1.805e690d00a3bp-14 t 0x0p+0"
      " sel 0 0 dir 1 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, MxvLogicalBitForce) {
  sparse::BitModeGuard bits(sparse::BitMode::Force);
  expect_records(run_gpusim(Op::kMxv, kLogical), {
      "out 129 c0dd8054760e73bd | "
      "k 10 10642 52608 32473 0x1.fa6b6911deed6p-15 t 0x0p+0"
      " sel 0 0 dir 0 1 exit 128 bit 1 655 1 halo 0 0x0p+0",
      "out 34 94d49b39f8fc264f | "
      "k 10 10642 53120 32473 0x1.fa7030dfc207cp-15 t 0x0p+0"
      " sel 0 0 dir 0 1 exit 128 bit 1 655 1 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, MxvLogicalBitOff) {
  sparse::BitModeGuard bits(sparse::BitMode::Off);
  sparse::SpmvModeGuard spmv(sparse::SpmvMode::ForceCsrScalar);
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePull);
  expect_records(run_gpusim(Op::kMxv, kLogical), {
      "out 129 c0dd8054760e73bd | "
      "k 5 20097 240976 5184 0x1.04a2e08d53d3p-15 t 0x0p+0"
      " sel 1 0 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 34 94d49b39f8fc264f | "
      "k 5 20097 241488 5184 0x1.04a7a85b36ed6p-15 t 0x0p+0"
      " sel 1 0 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, VxmPushCsrScalar) {
  sparse::SpmvModeGuard spmv(sparse::SpmvMode::ForceCsrScalar);
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePush);
  expect_records(run_gpusim(Op::kVxm, kArith), {
      "out 132 3d0a25a4a5be6012 | "
      "k 7 7476 78944 7084 0x1.63758bfac920bp-15 t 0x0p+0"
      " sel 1 0 dir 1 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 30 e03a8e072a50f064 | "
      "k 8 7732 79712 7148 0x1.95d2378b7bf44p-15 t 0x0p+0"
      " sel 1 0 dir 1 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, VxmPushCsrLoadBalancedChunk3) {
  sparse::SpmvModeGuard spmv(sparse::SpmvMode::ForceCsrLoadBalanced);
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePush);
  LbChunkGuard chunk(3);
  expect_records(run_gpusim(Op::kVxm, kArith), {
      "out 132 3d0a25a4a5be6012 | "
      "k 7 5500 25940 7084 0x1.6186a78ea4a2cp-15 t 0x0p+0"
      " sel 0 1 dir 1 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 30 e03a8e072a50f064 | "
      "k 8 5756 26708 7148 0x1.93e3531f57764p-15 t 0x0p+0"
      " sel 0 1 dir 1 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, VxmPull) {
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePull);
  expect_records(run_gpusim(Op::kVxm, kArith), {
      "out 132 3d0a25a4a5be6012 | "
      "k 17 22587 242449 166780 0x1.b34820d1205dcp-14 t 0x0p+0"
      " sel 0 0 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 30 e03a8e072a50f064 | "
      "k 18 20170 208350 164558 0x1.cbc90441aeb94p-14 t 0x0p+0"
      " sel 0 0 dir 0 1 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

// The logical semiring's additive annihilator lets pull rows exit early.
TEST(TraversalCounterExact, VxmLogicalPullBitOff) {
  sparse::BitModeGuard bits(sparse::BitMode::Off);
  sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePull);
  expect_records(run_gpusim(Op::kVxm, kLogical), {
      "out 132 ba49f1ea0cbed0a4 | "
      "k 17 20221 212874 166780 0x1.b2be0f1a7a765p-14 t 0x0p+0"
      " sel 0 0 dir 0 1 exit 119 bit 0 0 0 halo 0 0x0p+0",
      "out 30 c985393ff1acc3ad | "
      "k 18 19860 204475 164558 0x1.cbb6ed2951932p-14 t 0x0p+0"
      " sel 0 0 dir 0 1 exit 26 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, VxmLogicalBitForce) {
  sparse::BitModeGuard bits(sparse::BitMode::Force);
  expect_records(run_gpusim(Op::kVxm, kLogical), {
      "out 132 ba49f1ea0cbed0a4 | "
      "k 13 11201 52552 33652 0x1.48ba4cfb2cf2ep-14 t 0x0p+0"
      " sel 0 0 dir 1 0 exit 131 bit 1 653 1 halo 0 0x0p+0",
      "out 30 c985393ff1acc3ad | "
      "k 14 10492 50656 32798 0x1.61d7e9d6d271ep-14 t 0x0p+0"
      " sel 0 0 dir 1 0 exit 30 bit 1 256 1 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, ShardedMxvTwoShards) {
  expect_records(run_sharded(false, 2), {
      "out 129 9fdd5669a7a5b326 | "
      "k 5 2830 23978 3793 0x1.f9579bb10d164p-16 t 0x1.2e3c39a85381fp-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 8136 0x1.98614168d8662p-18 || "
      "k 3 1885 20175 3590 0x1.2fb93188b624cp-16 t 0x1.2ece410d88cc1p-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 34 c08e525e41b8b846 | "
      "k 5 2830 24490 3793 0x1.f9612b4cd34b2p-16 t 0x1.2e3c39a85381fp-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 8136 0x1.98614168d8662p-18 || "
      "k 3 1885 20175 3590 0x1.2fb93188b624cp-16 t 0x1.2ece410d88cc1p-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, ShardedMxvFourShards) {
  expect_records(run_sharded(false, 4), {
      "out 129 9fdd5669a7a5b326 | "
      "k 7 2899 24701 4311 0x1.616131e75311fp-15 t 0x1.2a8c8a56497c8p-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 11844 0x1.3038ade84d859p-16 || "
      "k 6 1788 19468 3058 0x1.2ecfbbe8055ap-15 t 0x1.2a8c8a56497c9p-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 34 c08e525e41b8b846 | "
      "k 7 2899 25213 4311 0x1.6165f9b5362c5p-15 t 0x1.2a8c8a56497c8p-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 11844 0x1.3038ade84d859p-16 || "
      "k 6 1788 19468 3058 0x1.2ecfbbe8055ap-15 t 0x1.2a8c8a56497c9p-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, ShardedVxmTwoShards) {
  expect_records(run_sharded(true, 2), {
      "out 132 3d0a25a4a5be6012 | "
      "k 10 2669 12935 8172 0x1.f81617af6f931p-15 t 0x1.2d7eb5b4fa959p-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 5312 0x1.9480db4bf738p-18 || "
      "k 3 493 4216 3696 0x1.2e91287ffd9b8p-16 t 0x1.2e10bd1a2fdfbp-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 30 e03a8e072a50f064 | "
      "k 10 2669 13447 8172 0x1.f81adf7d52ad7p-15 t 0x1.2d7eb5b4fa959p-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 5312 0x1.9480db4bf738p-18 || "
      "k 3 493 4216 3696 0x1.2e91287ffd9b8p-16 t 0x1.2e10bd1a2fdfbp-14"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, ShardedVxmFourShards) {
  expect_records(run_sharded(true, 4), {
      "out 132 3d0a25a4a5be6012 | "
      "k 15 2695 13158 8404 0x1.79e16cd4c7e82p-14 t 0x1.29c4b0afc6e8cp-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 5888 0x1.2ea905f5d1597p-16 || "
      "k 6 505 4304 3896 0x1.2e49f94a33e6ap-15 t 0x1.29c4b0afc6e8dp-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 30 e03a8e072a50f064 | "
      "k 15 2695 13670 8404 0x1.79e3d0bbb9755p-14 t 0x1.29c4b0afc6e8cp-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 5888 0x1.2ea905f5d1597p-16 || "
      "k 6 505 4304 3896 0x1.2e49f94a33e6ap-15 t 0x1.29c4b0afc6e8dp-13"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, MxvOverlayDirtyRows) {
  expect_records(run_gpusim(Op::kMxvOverlay, kArith), {
      "out 128 943ac29f0ed56f5e | "
      "k 5 4374 45667 5147 0x1.fb05e86a4e06cp-16 t 0x1.50937c8547e43p-15"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 33 1f07005eb59ff3f8 | "
      "k 5 4374 46179 5147 0x1.fb0f7806143b8p-16 t 0x1.50937c8547e43p-15"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

TEST(TraversalCounterExact, VxmOverlayDirtyRows) {
  expect_records(run_gpusim(Op::kVxmOverlay, kArith), {
      "out 127 6610e7c2f54f2769 | "
      "k 7 2880 16294 6598 0x1.61280d9e547a8p-15 t 0x1.50937c8547e43p-15"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
      "out 24 7fca9bb57681153d | "
      "k 7 2880 16806 6598 0x1.612cd56c3794ep-15 t 0x1.50937c8547e43p-15"
      " sel 0 0 dir 0 0 exit 0 bit 0 0 0 halo 0 0x0p+0",
  });
}

// Pool workers run different rows of one launch at once, and they hold
// their own engine-mode copies, so every mode a kernel body needs must be
// read on the issuing thread. mxv (scalar and load-balanced at a
// non-default chunk) and vxm (push and pull) on a 4-worker context must
// give the output and DeviceStats of a 1-worker context. At 1024 rows the
// row-parallel launches span four 256-thread blocks.
TEST(TraversalWorkers, FourWorkerContextMatchesOneWorker) {
  const Graph g = power_law(10);
  sparse::FusionGuard eager(sparse::FusionMode::Off);
  LbChunkGuard chunk(3);
  const auto run = [&](std::size_t workers) {
    gpu_sim::Context ctx(gpu_sim::DeviceProperties{}, workers);
    gpu_sim::ScopedDevice bind(ctx);
    const auto a = matrix<grb::GpuSim>(g);
    const auto u = input<grb::GpuSim>(g.n);
    const auto m = out_mask<grb::GpuSim>(g.n);
    std::vector<std::string> got;
    for (const auto spmv : {sparse::SpmvMode::ForceCsrScalar,
                            sparse::SpmvMode::ForceCsrLoadBalanced}) {
      sparse::SpmvModeGuard pin(spmv);
      sparse::DirectionModeGuard dir(sparse::DirectionMode::ForcePull);
      grb::Vector<double, grb::GpuSim> w(g.n);
      grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{}, kArith, a, u);
      got.push_back(describe_output(w));
    }
    for (const auto d : {sparse::DirectionMode::ForcePush,
                         sparse::DirectionMode::ForcePull}) {
      sparse::DirectionModeGuard dir(d);
      grb::Vector<double, grb::GpuSim> w(g.n);
      grb::vxm(w, m, grb::NoAccumulate{}, kArith, u, a, grb::Replace);
      got.push_back(describe_output(w));
    }
    const auto s = ctx.stats();
    got.push_back(describe_stats(s));
    std::ostringstream mem;
    mem << "h2d " << s.h2d_bytes << " d2h " << s.d2h_bytes << " alloc "
        << s.allocations << " " << s.total_bytes_allocated << " pool "
        << s.pool_hits << " " << s.pool_misses;
    got.push_back(mem.str());
    return got;
  };
  const auto one = run(1);
  const auto four = run(4);
  EXPECT_EQ(four, one);
  EXPECT_NE(one[0], "out 0 cbf29ce484222325");
}

}  // namespace
