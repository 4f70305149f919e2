#pragma once

/// @file engine_impl.hpp
/// Engine for one backend tag. Included only by engine_<backend>.cpp.
/// @p Bind is an RAII guard that binds the backend's execution resource
/// (CpuPar pool, GpuSim context) to the calling thread for one call.

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "algorithms/bfs.hpp"
#include "algorithms/connected_components.hpp"
#include "algorithms/pagerank.hpp"
#include "algorithms/sssp.hpp"
#include "algorithms/triangle_count.hpp"
#include "bench.hpp"
#include "engine.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "graph/graph_matrix.hpp"
#include "sparse/fusion_plan.hpp"

namespace perfbench {

namespace detail {

/// Drain the lazy op-DAG so a timed region covers all the work it issued.
inline void drain() { sparse::fusion_sync_all(); }

/// Zero the device counters before a measured call, so device_stats() after
/// it reads that call alone. The counters are running double sums:
/// differencing two snapshots would round differently as the totals grow,
/// while counting each call from zero keeps simulated time exact.
template <typename Tag>
void reset_device_stats() {
  if constexpr (std::is_same_v<Tag, grb::GpuSim>)
    gpu_sim::device().reset_stats();
}

template <typename Tag>
gpu_sim::DeviceStats device_stats() {
  if constexpr (std::is_same_v<Tag, grb::GpuSim>)
    return gpu_sim::device().stats();
  else
    return {};
}

}  // namespace detail

template <typename Tag, typename Bind, typename Resource>
class EngineT final : public Engine {
  using M = grb::Matrix<double, Tag>;

 public:
  explicit EngineT(Resource& res) : res_(res) {}

  void build(const AnalyticsInputs& in) override {
    Bind bind(res_);
    a16_ = std::make_unique<M>(gbtl_graph::to_matrix<double, Tag>(in.rmat16));
    s16_ = std::make_unique<M>(
        gbtl_graph::to_matrix<double, Tag>(in.rmat16_sym));
    s13_ = std::make_unique<M>(
        gbtl_graph::to_matrix<double, Tag>(in.rmat13_sym));
    detail::drain();
  }

  JobResult run(const Job& job) override {
    Bind bind(res_);
    JobResult r;
    const grb::IndexType n16 = a16_->nrows();
    detail::reset_device_stats<Tag>();
    switch (job.kind) {
      case JobKind::kBfs: {
        grb::Vector<grb::IndexType, Tag> levels(n16);
        const auto t0 = Clock::now();
        algorithms::bfs_level(*a16_, job.root, levels);
        detail::drain();
        r.wall_s = seconds_between(t0, Clock::now());
        r.dev = detail::device_stats<Tag>();
        levels.extractTuples(r.out.idx, r.out.ivals);
        for (auto v : r.out.ivals)
          r.count = std::max<std::uint64_t>(r.count, v);
        break;
      }
      case JobKind::kSssp: {
        grb::Vector<double, Tag> dist(n16);
        const auto t0 = Clock::now();
        r.count = algorithms::sssp(*a16_, job.root, dist);
        detail::drain();
        r.wall_s = seconds_between(t0, Clock::now());
        r.dev = detail::device_stats<Tag>();
        dist.extractTuples(r.out.idx, r.out.dvals);
        break;
      }
      case JobKind::kPageRank: {
        grb::Vector<double, Tag> rank(n16);
        const auto t0 = Clock::now();
        // Fixed work: 10 iterations, tolerance 0 (never converges early).
        r.count = algorithms::pagerank(*a16_, rank, 0.85, 0.0, 10).iterations;
        detail::drain();
        r.wall_s = seconds_between(t0, Clock::now());
        r.dev = detail::device_stats<Tag>();
        rank.extractTuples(r.out.idx, r.out.dvals);
        break;
      }
      case JobKind::kCc: {
        grb::Vector<grb::IndexType, Tag> labels(s16_->nrows());
        const auto t0 = Clock::now();
        r.count = algorithms::connected_components(*s16_, labels);
        detail::drain();
        r.wall_s = seconds_between(t0, Clock::now());
        r.dev = detail::device_stats<Tag>();
        labels.extractTuples(r.out.idx, r.out.ivals);
        break;
      }
      case JobKind::kTc: {
        const auto t0 = Clock::now();
        r.out.scalar = algorithms::triangle_count_masked(*s13_);
        detail::drain();
        r.wall_s = seconds_between(t0, Clock::now());
        r.dev = detail::device_stats<Tag>();
        r.count = 1;
        break;
      }
      case JobKind::kCount: break;
    }
    detail::drain();
    return r;
  }

  std::map<std::string, OpTime> ops(const AnalyticsInputs& in) override {
    Bind bind(res_);
    std::map<std::string, OpTime> out;
    const grb::IndexType n = a16_->nrows();
    const grb::IndexArrayType all = grb::all_indices(n);

    grb::Vector<double, Tag> u(n), v(n), w(n);
    grb::assign(u, grb::NoMask{}, grb::NoAccumulate{}, 1.0 / double(n), all);
    grb::assign(v, grb::NoMask{}, grb::NoAccumulate{}, 0.5 / double(n), all);
    grb::Matrix<double, Tag> pattern(n, n);
    grb::apply(pattern, grb::NoMask{}, grb::NoAccumulate{},
               [](const double&) { return 1.0; }, *a16_);
    grb::Matrix<double, Tag> m_out(n, n);
    using CountT = std::uint64_t;
    grb::Matrix<CountT, Tag> L(s13_->nrows(), s13_->ncols());
    grb::apply(L, grb::NoMask{}, grb::NoAccumulate{},
               [](const double&) { return CountT{1}; },
               algorithms::lower_triangle(*s13_));
    grb::Matrix<CountT, Tag> C(s13_->nrows(), s13_->ncols());
    detail::drain();

    // One timed call: wall ms and simulated ms, device drained.
    auto once = [&](auto&& call) {
      detail::reset_device_stats<Tag>();
      Span span("grb.op", "gbtl");
      const auto t0 = Clock::now();
      call();
      detail::drain();
      OpTime t;
      t.wall_ms = 1e3 * seconds_between(t0, Clock::now());
      t.sim_ms = 1e3 * detail::device_stats<Tag>().simulated_total_time_s();
      return t;
    };
    // Warm ops: one untimed call, then the median of five.
    auto warm = [&](const std::string& name, auto&& call) {
      once(call);
      std::vector<double> wall;
      OpTime last;
      for (int i = 0; i < 5; ++i) {
        last = once(call);
        wall.push_back(last.wall_ms);
      }
      last.wall_ms = median(wall);
      out[name] = last;
    };

    {
      // Cold vs warm vxm on a freshly built matrix: the gap is the lazily
      // built transpose (CSC) side the pull/gather kernels read.
      M fresh = gbtl_graph::to_matrix<double, Tag>(in.rmat16);
      detail::drain();
      auto vxm = [&] {
        grb::vxm(w, grb::NoMask{}, grb::NoAccumulate{},
                 grb::ArithmeticSemiring<double>{}, u, fresh, grb::Replace);
      };
      out["vxm_cold"] = once(vxm);
      out["vxm_warm"] = once(vxm);
    }
    warm("mxv", [&] {
      grb::mxv(w, grb::NoMask{}, grb::NoAccumulate{},
               grb::MinPlusSemiring<double>{}, *a16_, u, grb::Replace);
    });
    warm("mxm_diag", [&] {
      grb::mxm(m_out, grb::NoMask{}, grb::NoAccumulate{},
               grb::ArithmeticSemiring<double>{}, grb::diag(u), pattern,
               grb::Replace);
    });
    warm("mxm_masked", [&] {
      grb::mxm(C, grb::structure(L), grb::NoAccumulate{},
               grb::ArithmeticSemiring<CountT>{}, L, grb::transpose(L),
               grb::Replace);
    });
    warm("ewise_add", [&] {
      grb::eWiseAdd(w, grb::NoMask{}, grb::NoAccumulate{},
                    grb::Minus<double>{}, u, v, grb::Replace);
    });
    warm("apply", [&] {
      grb::apply(w, grb::NoMask{}, grb::NoAccumulate{},
                 grb::BindSecond<double, grb::Times<double>>{0.85}, u,
                 grb::Replace);
    });
    double sink = 0.0;
    warm("reduce", [&] {
      sink = 0.0;
      grb::reduce(sink, grb::NoAccumulate{}, grb::PlusMonoid<double>{}, u);
    });
    if (!(sink > 0.0)) throw std::runtime_error("reduce returned no mass");
    return out;
  }

 private:
  Resource& res_;
  std::unique_ptr<M> a16_, s16_, s13_;
};

}  // namespace perfbench
