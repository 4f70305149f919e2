#include "graphs.hpp"

#include <algorithm>
#include <unordered_set>

#include "graph/generators.hpp"

namespace perfbench {

namespace {

EdgeList raw_rmat(unsigned scale, std::uint64_t seed) {
  return gbtl_graph::remove_self_loops(
      gbtl_graph::rmat(scale, 16, sub_seed(seed, scale)));
}

EdgeList finish(EdgeList g, unsigned scale, std::uint64_t seed,
                bool symmetric, bool weighted) {
  // symmetrize() collapses duplicates itself.
  g = symmetric ? gbtl_graph::symmetrize(g) : gbtl_graph::deduplicate(g);
  if (weighted)
    g = gbtl_graph::with_random_weights(g, 1.0, 255.0,
                                        sub_seed(seed, 100 + scale));
  return g;
}

}  // namespace

EdgeList rmat_graph(unsigned scale, std::uint64_t seed, bool symmetric,
                    bool weighted) {
  return finish(raw_rmat(scale, seed), scale, seed, symmetric, weighted);
}

std::vector<Index> pick_roots(const EdgeList& g, std::size_t count,
                              std::uint64_t seed) {
  const std::vector<Index> deg = gbtl_graph::out_degrees(g);
  Rng rng(seed);
  std::vector<Index> roots;
  std::unordered_set<Index> seen;
  while (roots.size() < count) {
    const Index v = rng.below(g.num_vertices);
    if (deg[v] >= 1 && seen.insert(v).second) roots.push_back(v);
  }
  return roots;
}

AnalyticsInputs make_analytics_inputs(std::uint64_t seed) {
  AnalyticsInputs in;
  EdgeList raw16 = raw_rmat(16, seed);
  in.rmat16 = finish(raw16, 16, seed, /*symmetric=*/false, /*weighted=*/true);
  in.rmat16_sym = finish(std::move(raw16), 16, seed, /*symmetric=*/true,
                         /*weighted=*/false);
  in.rmat13_sym = rmat_graph(13, seed, /*symmetric=*/true, /*weighted=*/false);
  const std::size_t nbfs = kBfsPerPass * kRootCycle;
  const std::vector<Index> roots = pick_roots(
      in.rmat16, nbfs + kSsspPerPass * kRootCycle, sub_seed(seed, 7));
  in.bfs_roots.assign(roots.begin(), roots.begin() + nbfs);
  in.sssp_roots.assign(roots.begin() + nbfs, roots.end());
  return in;
}

}  // namespace perfbench
