#include "graph/generators.hpp"

#include <algorithm>
#include <tuple>
#include <random>
#include <stdexcept>

namespace gbtl_graph {

namespace {

std::mt19937_64 make_rng(std::uint64_t seed) { return std::mt19937_64{seed}; }

}  // namespace

EdgeList rmat(unsigned scale, Index edgefactor, std::uint64_t seed, double a,
              double b, double c) {
  if (scale > 40) throw std::invalid_argument("rmat: scale too large");
  const double d = 1.0 - a - b - c;
  if (d < 0.0) throw std::invalid_argument("rmat: a + b + c must be <= 1");

  const Index n = Index{1} << scale;
  const Index m = edgefactor * n;
  EdgeList g;
  g.num_vertices = n;
  g.src.reserve(m);
  g.dst.reserve(m);

  auto rng = make_rng(seed);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  for (Index e = 0; e < m; ++e) {
    Index row = 0;
    Index col = 0;
    for (unsigned level = 0; level < scale; ++level) {
      // Noise the quadrant probabilities per level as Graph500 does, to
      // avoid exact self-similarity artifacts.
      const double ab = a + b;
      const double a_norm = a / ab;
      const double c_norm = c / (c + d);
      const double r1 = uni(rng);
      const double r2 = uni(rng);
      const bool down = r1 > ab;
      const bool right = down ? (r2 > c_norm) : (r2 > a_norm);
      row = (row << 1) | static_cast<Index>(down);
      col = (col << 1) | static_cast<Index>(right);
    }
    g.src.push_back(row);
    g.dst.push_back(col);
  }
  return g;
}

EdgeList erdos_renyi(Index n, Index m, std::uint64_t seed) {
  EdgeList g;
  g.num_vertices = n;
  g.src.reserve(m);
  g.dst.reserve(m);
  auto rng = make_rng(seed);
  std::uniform_int_distribution<Index> pick(0, n > 0 ? n - 1 : 0);
  for (Index e = 0; e < m; ++e) {
    g.src.push_back(pick(rng));
    g.dst.push_back(pick(rng));
  }
  return g;
}

EdgeList grid2d(Index rows, Index cols) {
  EdgeList g;
  g.num_vertices = rows * cols;
  auto id = [cols](Index r, Index c) { return r * cols + c; };
  for (Index r = 0; r < rows; ++r) {
    for (Index c = 0; c < cols; ++c) {
      if (c + 1 < cols) {
        g.src.push_back(id(r, c));
        g.dst.push_back(id(r, c + 1));
        g.src.push_back(id(r, c + 1));
        g.dst.push_back(id(r, c));
      }
      if (r + 1 < rows) {
        g.src.push_back(id(r, c));
        g.dst.push_back(id(r + 1, c));
        g.src.push_back(id(r + 1, c));
        g.dst.push_back(id(r, c));
      }
    }
  }
  return g;
}

EdgeList path(Index n) {
  EdgeList g;
  g.num_vertices = n;
  for (Index i = 0; i + 1 < n; ++i) {
    g.src.push_back(i);
    g.dst.push_back(i + 1);
  }
  return g;
}

EdgeList cycle(Index n) {
  EdgeList g = path(n);
  if (n > 1) {
    g.src.push_back(n - 1);
    g.dst.push_back(0);
  }
  return g;
}

EdgeList star(Index n) {
  EdgeList g;
  g.num_vertices = n;
  for (Index i = 1; i < n; ++i) {
    g.src.push_back(0);
    g.dst.push_back(i);
    g.src.push_back(i);
    g.dst.push_back(0);
  }
  return g;
}

EdgeList complete(Index n) {
  EdgeList g;
  g.num_vertices = n;
  for (Index i = 0; i < n; ++i)
    for (Index j = 0; j < n; ++j)
      if (i != j) {
        g.src.push_back(i);
        g.dst.push_back(j);
      }
  return g;
}

// --- Transforms -------------------------------------------------------------

EdgeList symmetrize(const EdgeList& g) {
  EdgeList out = g;
  for (Index e = 0; e < g.num_edges(); ++e) {
    if (g.src[e] == g.dst[e]) continue;
    out.src.push_back(g.dst[e]);
    out.dst.push_back(g.src[e]);
    if (g.weighted()) out.weight.push_back(g.weight[e]);
  }
  return deduplicate(out);
}

EdgeList remove_self_loops(const EdgeList& g) {
  EdgeList out;
  out.num_vertices = g.num_vertices;
  for (Index e = 0; e < g.num_edges(); ++e) {
    if (g.src[e] == g.dst[e]) continue;
    out.src.push_back(g.src[e]);
    out.dst.push_back(g.dst[e]);
    if (g.weighted()) out.weight.push_back(g.weight[e]);
  }
  return out;
}

EdgeList deduplicate(const EdgeList& g) {
  // Sort by (src, dst) with input position as the tie-break, then fold each
  // run of equal pairs in input order — the summation order of inserting
  // into an ordered map, at the cost of one contiguous sort.
  struct Edge {
    Index src, dst, id;
  };
  std::vector<Edge> edges(g.num_edges());
  for (Index e = 0; e < g.num_edges(); ++e) edges[e] = {g.src[e], g.dst[e], e};
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.src, a.dst, a.id) < std::tie(b.src, b.dst, b.id);
  });
  const auto same_pair = [](const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst;
  };
  std::size_t unique = 0;
  for (std::size_t k = 0; k < edges.size(); ++k)
    unique += k == 0 || !same_pair(edges[k - 1], edges[k]);
  EdgeList out;
  out.num_vertices = g.num_vertices;
  out.src.reserve(unique);
  out.dst.reserve(unique);
  if (g.weighted()) out.weight.reserve(unique);
  for (std::size_t k = 0; k < edges.size();) {
    const Edge& head = edges[k];
    double w = g.weighted() ? g.weight[head.id] : 1.0;
    for (++k; k < edges.size() && same_pair(head, edges[k]); ++k)
      if (g.weighted()) w += g.weight[edges[k].id];
    out.src.push_back(head.src);
    out.dst.push_back(head.dst);
    if (g.weighted()) out.weight.push_back(w);
  }
  return out;
}

EdgeList lower_triangle(const EdgeList& g) {
  EdgeList out;
  out.num_vertices = g.num_vertices;
  for (Index e = 0; e < g.num_edges(); ++e) {
    if (g.src[e] <= g.dst[e]) continue;
    out.src.push_back(g.src[e]);
    out.dst.push_back(g.dst[e]);
    if (g.weighted()) out.weight.push_back(g.weight[e]);
  }
  return out;
}

EdgeList with_random_weights(const EdgeList& g, double lo, double hi,
                             std::uint64_t seed) {
  EdgeList out = g;
  out.weight.resize(g.num_edges());
  auto rng = make_rng(seed);
  std::uniform_real_distribution<double> uni(lo, hi);
  for (auto& w : out.weight) w = uni(rng);
  return out;
}

std::vector<Index> out_degrees(const EdgeList& g) {
  std::vector<Index> deg(g.num_vertices, 0);
  for (Index e = 0; e < g.num_edges(); ++e) ++deg[g.src[e]];
  return deg;
}

}  // namespace gbtl_graph
