/// Graph toolkit tests: generators produce the documented shapes, the
/// transforms preserve invariants, and Matrix Market I/O round-trips.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "graph/mmio.hpp"

namespace {

using gbtl_graph::EdgeList;
using gbtl_graph::Index;

TEST(Generators, PathCycleStarComplete) {
  EXPECT_EQ(gbtl_graph::path(5).num_edges(), 4u);
  EXPECT_EQ(gbtl_graph::cycle(5).num_edges(), 5u);
  EXPECT_EQ(gbtl_graph::star(5).num_edges(), 8u);
  EXPECT_EQ(gbtl_graph::complete(5).num_edges(), 20u);
  EXPECT_EQ(gbtl_graph::path(1).num_edges(), 0u);
}

TEST(Generators, Grid2dDegreesAndSymmetry) {
  auto g = gbtl_graph::grid2d(3, 4);
  EXPECT_EQ(g.num_vertices, 12u);
  // Interior degree 4, corner degree 2; symmetric edge count:
  // horizontal 3*3, vertical 2*4 -> 17 undirected -> 34 directed.
  EXPECT_EQ(g.num_edges(), 34u);
  std::set<std::pair<Index, Index>> edges;
  for (Index e = 0; e < g.num_edges(); ++e)
    edges.emplace(g.src[e], g.dst[e]);
  for (const auto& [s, d] : edges)
    EXPECT_TRUE(edges.count({d, s})) << s << "->" << d;
}

TEST(Generators, RmatShapeAndDeterminism) {
  auto a = gbtl_graph::rmat(8, 8, 42);
  EXPECT_EQ(a.num_vertices, 256u);
  EXPECT_EQ(a.num_edges(), 2048u);
  auto b = gbtl_graph::rmat(8, 8, 42);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.dst, b.dst);
  auto c = gbtl_graph::rmat(8, 8, 43);
  EXPECT_NE(a.src, c.src);
}

TEST(Generators, RmatIsSkewed) {
  // Power-law-ish: the max out-degree should far exceed the average.
  auto g = gbtl_graph::rmat(10, 16, 7);
  auto deg = gbtl_graph::out_degrees(g);
  Index max_deg = 0;
  for (Index d : deg) max_deg = std::max(max_deg, d);
  EXPECT_GT(max_deg, 16u * 4);  // avg is 16
}

TEST(Generators, ErdosRenyiBounds) {
  auto g = gbtl_graph::erdos_renyi(100, 500, 3);
  EXPECT_EQ(g.num_vertices, 100u);
  EXPECT_EQ(g.num_edges(), 500u);
  for (Index e = 0; e < g.num_edges(); ++e) {
    EXPECT_LT(g.src[e], 100u);
    EXPECT_LT(g.dst[e], 100u);
  }
}

TEST(Transforms, SymmetrizeMakesSymmetric) {
  auto g = gbtl_graph::symmetrize(gbtl_graph::rmat(6, 4, 9));
  std::set<std::pair<Index, Index>> edges;
  for (Index e = 0; e < g.num_edges(); ++e)
    edges.emplace(g.src[e], g.dst[e]);
  for (const auto& [s, d] : edges) EXPECT_TRUE(edges.count({d, s}));
}

TEST(Transforms, RemoveSelfLoopsAndDeduplicate) {
  EdgeList g;
  g.num_vertices = 3;
  g.src = {0, 0, 1, 1, 2};
  g.dst = {0, 1, 2, 2, 2};
  auto no_loops = gbtl_graph::remove_self_loops(g);
  EXPECT_EQ(no_loops.num_edges(), 3u);  // drops 0->0 and 2->2
  auto dedup = gbtl_graph::deduplicate(no_loops);
  EXPECT_EQ(dedup.num_edges(), 2u);  // 1->2 collapses
}

TEST(Transforms, DeduplicateSumsWeights) {
  EdgeList g;
  g.num_vertices = 2;
  g.src = {0, 0};
  g.dst = {1, 1};
  g.weight = {2.5, 4.0};
  auto d = gbtl_graph::deduplicate(g);
  ASSERT_EQ(d.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(d.weight[0], 6.5);
}

/// The ordered-map dedup the sort-based one replaced: first weight stored,
/// later duplicates added in input order.
EdgeList map_deduplicate(const EdgeList& g) {
  std::map<std::pair<Index, Index>, double> acc;
  for (Index e = 0; e < g.num_edges(); ++e) {
    const double w = g.weighted() ? g.weight[e] : 1.0;
    auto [it, fresh] = acc.emplace(std::make_pair(g.src[e], g.dst[e]), w);
    if (!fresh) it->second += w;
  }
  EdgeList out;
  out.num_vertices = g.num_vertices;
  for (const auto& [key, w] : acc) {
    out.src.push_back(key.first);
    out.dst.push_back(key.second);
    if (g.weighted()) out.weight.push_back(w);
  }
  return out;
}

// Heavy duplication with weights whose sum depends on the order of the
// additions (1e16 absorbs small addends unless they come first): the
// output must match the map reference bit for bit, order included.
TEST(Transforms, DeduplicateMatchesOrderedMapReference) {
  std::mt19937_64 rng(11);
  const double kWeights[] = {1e16, -1e16, 0.1, 0.7, 3.0, 1.0 / 3.0};
  for (const bool weighted : {true, false}) {
    EdgeList g;
    g.num_vertices = 12;
    for (int e = 0; e < 4000; ++e) {
      g.src.push_back(rng() % 12);
      g.dst.push_back(rng() % 12);
      if (weighted) g.weight.push_back(kWeights[rng() % 6]);
    }
    const EdgeList want = map_deduplicate(g);
    const EdgeList got = gbtl_graph::deduplicate(g);
    EXPECT_EQ(got.num_vertices, want.num_vertices);
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.weight, want.weight);
  }
  const EdgeList sym = gbtl_graph::with_random_weights(
      gbtl_graph::rmat(8, 8, 3), 0.5, 2.0, 4);
  const EdgeList doubled = [&] {
    EdgeList d = sym;
    d.src.insert(d.src.end(), sym.src.begin(), sym.src.end());
    d.dst.insert(d.dst.end(), sym.dst.begin(), sym.dst.end());
    d.weight.insert(d.weight.end(), sym.weight.begin(), sym.weight.end());
    return d;
  }();
  const EdgeList want = map_deduplicate(doubled);
  const EdgeList got = gbtl_graph::deduplicate(doubled);
  EXPECT_EQ(got.src, want.src);
  EXPECT_EQ(got.dst, want.dst);
  EXPECT_EQ(got.weight, want.weight);
}

TEST(Transforms, LowerTriangleAndWeights) {
  auto g = gbtl_graph::symmetrize(gbtl_graph::complete(4));
  auto l = gbtl_graph::lower_triangle(g);
  EXPECT_EQ(l.num_edges(), 6u);
  for (Index e = 0; e < l.num_edges(); ++e) EXPECT_GT(l.src[e], l.dst[e]);

  auto w = gbtl_graph::with_random_weights(l, 1.0, 9.0, 5);
  ASSERT_TRUE(w.weighted());
  for (double x : w.weight) {
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 9.0);
  }
}

TEST(Mmio, WriteReadRoundTrip) {
  auto g = gbtl_graph::with_random_weights(
      gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(20, 50, 2)), 0.5, 2.0,
      8);
  std::stringstream ss;
  gbtl_graph::write_matrix_market(ss, g);
  auto back = gbtl_graph::read_matrix_market(ss);
  EXPECT_EQ(back.num_vertices, g.num_vertices);
  EXPECT_EQ(back.src, g.src);
  EXPECT_EQ(back.dst, g.dst);
  ASSERT_EQ(back.weight.size(), g.weight.size());
  for (Index e = 0; e < g.num_edges(); ++e)
    EXPECT_NEAR(back.weight[e], g.weight[e], 1e-6);
}

TEST(Mmio, ReadsPatternAndSymmetric) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% a comment\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  auto g = gbtl_graph::read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices, 3u);
  EXPECT_EQ(g.num_edges(), 4u);  // both triangles expanded
  EXPECT_FALSE(g.weighted());
}

TEST(Mmio, RejectsMalformedInput) {
  std::stringstream no_banner("3 3 1\n1 1 1\n");
  EXPECT_THROW(gbtl_graph::read_matrix_market(no_banner),
               gbtl_graph::MatrixMarketError);
  std::stringstream bad_field(
      "%%MatrixMarket matrix coordinate complex general\n3 3 0\n");
  EXPECT_THROW(gbtl_graph::read_matrix_market(bad_field),
               gbtl_graph::MatrixMarketError);
  std::stringstream oob(
      "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n");
  EXPECT_THROW(gbtl_graph::read_matrix_market(oob),
               gbtl_graph::MatrixMarketError);
  std::stringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n");
  EXPECT_THROW(gbtl_graph::read_matrix_market(truncated),
               gbtl_graph::MatrixMarketError);
}

TEST(GraphMatrix, ToMatrixRoundTrip) {
  auto g = gbtl_graph::with_random_weights(
      gbtl_graph::deduplicate(gbtl_graph::erdos_renyi(16, 40, 4)), 1.0, 5.0,
      6);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  EXPECT_EQ(a.nvals(), g.num_edges());
  auto back = gbtl_graph::to_edge_list(a);
  EXPECT_EQ(back.src, g.src);
  EXPECT_EQ(back.dst, g.dst);
}

TEST(GraphMatrix, UnweightedEdgesGetOnes) {
  auto g = gbtl_graph::path(3);
  auto a = gbtl_graph::to_matrix<double, grb::Sequential>(g);
  EXPECT_DOUBLE_EQ(a.extractElement(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.extractElement(1, 2), 1.0);
}

}  // namespace
