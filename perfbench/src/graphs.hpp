#pragma once

/// @file graphs.hpp
/// Workload inputs, generated from the run's --seed and nothing else.

#include <cstdint>
#include <vector>

#include "graph/edge_list.hpp"

namespace perfbench {

using gbtl_graph::EdgeList;
using gbtl_graph::Index;

/// SplitMix64: a small, fully specified generator, so the same seed gives
/// the same inputs with any standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// A derived seed for one named stream of the run's inputs.
inline std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x100000001b3ull + stream).next();
}

/// R-MAT (Graph500 parameters, edge factor 16), self-loops removed and
/// duplicates collapsed. Symmetric graphs are symmetrized before the
/// duplicates collapse. Weighted graphs get uniform weights in [1, 255].
EdgeList rmat_graph(unsigned scale, std::uint64_t seed, bool symmetric,
                    bool weighted);

/// @p count distinct vertices with out-degree >= 1 (Graph500 root rule).
std::vector<Index> pick_roots(const EdgeList& g, std::size_t count,
                              std::uint64_t seed);

struct AnalyticsInputs {
  EdgeList rmat16;      ///< directed, weighted: BFS, SSSP, PageRank
  EdgeList rmat16_sym;  ///< symmetrized: connected components
  EdgeList rmat13_sym;  ///< symmetrized: triangle counting
  /// Roots for one cycle of kRootCycle passes: pass k uses the k-th slice
  /// of 8 BFS and 2 SSSP roots, so a run's medians cover 80 roots and
  /// depend little on which ones a seed drew.
  std::vector<Index> bfs_roots;
  std::vector<Index> sssp_roots;
};

inline constexpr std::size_t kRootCycle = 8;
inline constexpr std::size_t kBfsPerPass = 8;
inline constexpr std::size_t kSsspPerPass = 2;

AnalyticsInputs make_analytics_inputs(std::uint64_t seed);

}  // namespace perfbench
