/// @file analytics.cpp
/// The two analytics workloads: one caller thread making direct
/// algorithms:: calls on grb::CpuPar (a 1-worker pool; the traced run adds
/// a pass on an nproc-thread pool) or on grb::GpuSim, checked bit for bit
/// against a Sequential oracle.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "backend_cpupar/pool.hpp"
#include "bench.hpp"
#include "engine.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/thread_pool.hpp"
#include "graph/edge_list.hpp"

namespace perfbench {

namespace {

/// Setups per run; setup_s is their median. Graph generation dominates a
/// set-up here (~8 s at scale 16 on one core), so two keep the run short.
constexpr int kSetupReps = 2;

/// Device counters of one pass, summed over its jobs.
struct DevSum {
  std::uint64_t launches = 0, elided = 0, ops = 0, bytes = 0;
  std::uint64_t h2d = 0, d2h = 0, pool_hits = 0, pool_misses = 0;
  std::uint64_t pull = 0, directions = 0, bit = 0, fused = 0;
  std::uint64_t hash = 0, spgemms = 0, masked_avoided = 0;
  double kernel_s = 0.0, transfer_s = 0.0;
  std::array<double, kJobKinds> kind_sim_s{};
  std::array<std::uint64_t, kJobKinds> kind_launches{};

  void add(JobKind k, const gpu_sim::DeviceStats& d) {
    launches += d.kernel_launches;
    elided += d.launches_elided;
    ops += d.kernel_ops;
    bytes += d.kernel_bytes_read + d.kernel_bytes_written;
    h2d += d.h2d_bytes;
    d2h += d.d2h_bytes;
    pool_hits += d.pool_hits;
    pool_misses += d.pool_misses;
    pull += d.direction_selections[static_cast<std::size_t>(
        gpu_sim::TraversalDirection::kPull)];
    directions += d.direction_selections_total();
    bit += d.bit_selections;
    fused += d.fused_launches;
    hash += d.spgemm_selections[static_cast<std::size_t>(
        gpu_sim::SpgemmStrategy::kHash)];
    spgemms += d.spgemm_selections_total();
    masked_avoided += d.spgemm_masked_products_avoided;
    kernel_s += d.simulated_kernel_time_s;
    transfer_s += d.simulated_transfer_time_s;
    kind_sim_s[static_cast<std::size_t>(k)] += d.simulated_total_time_s();
    kind_launches[static_cast<std::size_t>(k)] += d.kernel_launches;
  }
  double sim_s() const { return kernel_s + transfer_s; }
};

struct Pass {
  double wall_s = 0.0;  ///< pass wall time, oracle checks excluded
  DevSum dev;
  std::uint64_t sssp_rounds = 0, cc_rounds = 0, pr_iterations = 0;
  std::uint64_t bfs_levels = 0;
};

struct Window {
  std::vector<Pass> passes;
  std::array<std::vector<double>, kJobKinds> job_ms;
  std::vector<double> all_ms;
  double busy_s = 0.0;  ///< wall time of the passes, checks excluded
  double wall_s = 0.0;  ///< wall time of the window, checks included
  double cpu_s = 0.0;   ///< process CPU time over the window
  double steal_pct = 0.0;  ///< host steal over the window
  std::uint64_t jobs = 0, attempted = 0, failed = 0;
  double bfs_edges = 0.0, bfs_s = 0.0;  ///< for MTEPS
};

bool same_bits(const Payload& a, const Payload& b) {
  if (a.idx != b.idx || a.ivals != b.ivals || a.scalar != b.scalar ||
      a.dvals.size() != b.dvals.size())
    return false;
  return a.dvals.empty() ||
         std::memcmp(a.dvals.data(), b.dvals.data(),
                     a.dvals.size() * sizeof(double)) == 0;
}

/// Edges a BFS traversed, Graph500 style: out-degree summed over the
/// vertices it reached.
double traversed_edges(const Payload& levels, const std::vector<Index>& deg) {
  double e = 0.0;
  for (Index v : levels.idx) e += static_cast<double>(deg[v]);
  return e;
}

Pass run_pass(Engine& engine, const std::vector<Job>& jobs,
              const std::vector<Payload>& oracle, Report& rep, Window* win,
              const std::vector<Index>& deg, std::uint64_t& request_id) {
  Span pass_span("pass", "analytics");
  Pass pass;
  double check_s = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const std::uint64_t rid = ++request_id;
    JobResult r;
    if (win != nullptr) ++win->attempted;
    try {
      Span job_span(to_string(job.kind), "algorithms", rid);
      r = engine.run(job);
    } catch (const std::exception& e) {
      if (win != nullptr) ++win->failed;
      rep.mismatch(std::string(to_string(job.kind)) + " threw: " + e.what());
      continue;
    }
    const auto c0 = Clock::now();
    {
      Span check_span("oracle.check", "check", rid);
      if (!same_bits(r.out, oracle[i]))
        rep.mismatch(std::string(to_string(job.kind)) + " job " +
                     std::to_string(i) + " differs from the Sequential oracle");
    }
    check_s += seconds_between(c0, Clock::now());
    pass.dev.add(job.kind, r.dev);
    switch (job.kind) {
      case JobKind::kBfs: pass.bfs_levels += r.count; break;
      case JobKind::kSssp: pass.sssp_rounds += r.count; break;
      case JobKind::kPageRank: pass.pr_iterations += r.count; break;
      case JobKind::kCc: pass.cc_rounds += r.count; break;
      default: break;
    }
    if (win != nullptr) {
      const double ms = 1e3 * r.wall_s;
      win->job_ms[static_cast<std::size_t>(job.kind)].push_back(ms);
      win->all_ms.push_back(ms);
      ++win->jobs;
      if (job.kind == JobKind::kBfs) {
        win->bfs_edges += traversed_edges(oracle[i], deg);
        win->bfs_s += r.wall_s;
      }
    }
  }
  pass.wall_s = seconds_between(t0, Clock::now()) - check_s;
  return pass;
}

/// The jobs of each pass of the root cycle and their oracle outputs.
struct Cycle {
  std::vector<std::vector<Job>> jobs;
  std::vector<std::vector<Payload>> oracle;
};

Window run_window(Engine& engine, const Cycle& cycle, Report& rep,
                  double seconds, const std::vector<Index>& deg,
                  std::uint64_t& request_id) {
  Window win;
  const CpuTicks ticks0 = cpu_ticks();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  // Whole passes until the window is spent, at least one full root cycle.
  while (win.passes.size() < kRootCycle || win.busy_s < seconds) {
    const std::size_t k = win.passes.size() % kRootCycle;
    win.passes.push_back(run_pass(engine, cycle.jobs[k], cycle.oracle[k], rep,
                                  &win, deg, request_id));
    win.busy_s += win.passes.back().wall_s;
  }
  win.wall_s = seconds_between(t0, Clock::now());
  win.cpu_s = process_cpu_s() - cpu0;
  win.steal_pct = steal_pct(ticks0, cpu_ticks());
  return win;
}

/// Per-pass value of a counter: its mean over the window's first root
/// cycle, summed in pass order, so an exact counter stays exact.
template <typename F>
double per_pass(const std::vector<Pass>& passes, F&& f) {
  double sum = 0.0;
  for (std::size_t k = 0; k < kRootCycle; ++k)
    sum += static_cast<double>(f(passes[k]));
  return sum / static_cast<double>(kRootCycle);
}

/// Does a second root cycle, when the window ran one, repeat the first?
template <typename F>
bool cycles_repeat(const std::vector<Pass>& passes, F&& f) {
  for (std::size_t k = kRootCycle; k < std::min(passes.size(), 2 * kRootCycle);
       ++k)
    if (f(passes[k]) != f(passes[k - kRootCycle])) return false;
  return true;
}

}  // namespace

Report run_analytics(const Options& opt, bool gpusim) {
  Report rep;
  Trace& trace = Trace::instance();
  // The timed window runs CpuPar on one worker (chunks inline on the
  // caller). Every op on a wider pool ends in a barrier whose wake-ups wait
  // for the host to schedule idle vCPUs, so on a shared VM its wall time
  // tracks host steal about threefold (perfbench/README.md). The traced run
  // times the nproc-thread pool beside it, as per-layer metrics.
  const std::size_t pool_threads = 1;
  check_threads(opt, gpusim ? 1 : opt.nproc,
                gpusim ? "analytics-gpusim" : "analytics-cpupar");
  rep.info["compute_threads"] = std::to_string(gpusim ? 1 : opt.nproc);

  gpu_sim::ThreadPool pool(pool_threads);
  std::unique_ptr<gpu_sim::Context> ctx;
  std::unique_ptr<Engine> engine;
  AnalyticsInputs in;
  std::vector<double> setup_s, gen_s, build_s;
  std::vector<std::vector<Payload>> warmup_outputs;
  std::uint64_t request_id = 0;

  // --- Set-up, repeated: generate, build/upload, one untimed warm-up pass.
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    Span setup_span("setup", "setup");
    engine.reset();
    ctx.reset();
    in = AnalyticsInputs{};
    const auto t0 = Clock::now();
    {
      Span s("graph.generate", "graph");
      in = make_analytics_inputs(opt.seed);
    }
    const auto t1 = Clock::now();
    if (gpusim) {
      ctx = std::make_unique<gpu_sim::Context>(gpu_sim::DeviceProperties{}, 1);
      engine = make_gpusim_engine(*ctx);
    } else {
      engine = make_cpupar_engine(pool);
    }
    {
      Span s("graph.build_matrix", "graph");
      engine->build(in);
    }
    const auto t2 = Clock::now();
    {
      Span s("setup.warmup", "setup");
      std::vector<Payload> outs;
      for (const Job& job : pass_jobs(in, 0))
        outs.push_back(engine->run(job).out);
      warmup_outputs.push_back(std::move(outs));
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_s.push_back(seconds_between(t0, t1));
    build_s.push_back(seconds_between(t1, t2));
  }
  const std::vector<Index> deg = gbtl_graph::out_degrees(in.rmat16);

  // --- Oracle: one root cycle of single-threaded Sequential passes,
  // outside every window. PageRank, CC and TC take no root, so they run
  // once and every pass shares their output and time. The median pass
  // time is the Sequential baseline.
  Cycle cycle;
  std::vector<double> seq_pass;
  std::unique_ptr<Engine> seq = make_sequential_engine();
  {
    Span s("oracle", "check");
    seq->build(in);
    std::map<JobKind, JobResult> rootless;
    for (std::size_t k = 0; k < kRootCycle; ++k) {
      cycle.jobs.push_back(pass_jobs(in, k));
      std::vector<Payload> outs;
      double pass_s = 0.0;
      for (const Job& job : cycle.jobs[k]) {
        const bool rooted =
            job.kind == JobKind::kBfs || job.kind == JobKind::kSssp;
        auto it = rootless.find(job.kind);
        if (!rooted && it == rootless.end())
          it = rootless.emplace(job.kind, seq->run(job)).first;
        const JobResult r = rooted ? seq->run(job) : it->second;
        pass_s += r.wall_s;
        outs.push_back(r.out);
      }
      seq_pass.push_back(pass_s);
      cycle.oracle.push_back(std::move(outs));
    }
  }
  const double seq_pass_s = median(seq_pass);
  {
    Span s("oracle.check", "check");
    for (const auto& outs : warmup_outputs)
      for (std::size_t i = 0; i < outs.size(); ++i)
        if (!same_bits(outs[i], cycle.oracle[0][i]))
          rep.mismatch(std::string("warm-up ") +
                       to_string(cycle.jobs[0][i].kind) +
                       " differs from the Sequential oracle");
  }

  // --- Timed window(s). A traced run measures an untraced half first, so
  // trace.overhead_pct compares the two halves of one process.
  const bool traced = opt.trace;
  Window plain, tw;
  if (traced) {
    trace.enable(false);
    plain = run_window(*engine, cycle, rep, opt.seconds / 2, deg, request_id);
    trace.enable(true);
    tw = run_window(*engine, cycle, rep, opt.seconds / 2, deg, request_id);
  } else {
    plain = run_window(*engine, cycle, rep, opt.seconds, deg, request_id);
  }
  const Window& w = plain;
  rep.attempted = plain.attempted + tw.attempted;
  rep.failed = plain.failed + tw.failed;

  // --- End-to-end metrics (untraced window).
  const double jps = static_cast<double>(w.jobs) / w.busy_s;
  rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
  rep.e2e("jobs_per_s", jps, "1/s", w.jobs);
  for (std::size_t k = 0; k < kJobKinds; ++k)
    rep.e2e(std::string(to_string(static_cast<JobKind>(k))) + "_ms",
            median(w.job_ms[k]), "ms", w.job_ms[k].size());
  rep.e2e("latency_p50_ms", quantile(w.all_ms, 0.5), "ms",
          w.all_ms.size());
  rep.e2e("latency_p99_ms", quantile(w.all_ms, 0.99), "ms",
          w.all_ms.size());
  rep.info["passes"] = std::to_string(w.passes.size());
  rep.info["host_steal_pct"] = std::to_string(w.steal_pct);

  // --- Per-layer metrics from the window's passes (cheap, always printed).
  const auto& P = w.passes;
  rep.layer("error_rate",
            w.attempted ? double(w.failed) / double(w.attempted) : 0.0,
            "ratio", Tag::kComputed);
  rep.layer("graph.generate_s", median(gen_s), "s");
  rep.layer("graph.build_matrix_s", median(build_s), "s");
  rep.layer("algorithms.bfs.mteps", w.bfs_edges / w.bfs_s / 1e6, "MTEPS");
  rep.layer("algorithms.bfs.levels",
            per_pass(P, [](const Pass& p) { return p.bfs_levels; }), "count",
            Tag::kMeasured,
            cycles_repeat(P, [](const Pass& p) { return p.bfs_levels; }));
  rep.layer("algorithms.sssp.rounds",
            per_pass(P, [](const Pass& p) { return p.sssp_rounds; }),
            "count", Tag::kMeasured,
            cycles_repeat(P, [](const Pass& p) { return p.sssp_rounds; }));
  rep.layer("algorithms.cc.rounds",
            per_pass(P, [](const Pass& p) { return p.cc_rounds; }), "count",
            Tag::kMeasured,
            cycles_repeat(P, [](const Pass& p) { return p.cc_rounds; }));
  rep.layer("algorithms.pagerank.iterations",
            per_pass(P, [](const Pass& p) { return p.pr_iterations; }),
            "count", Tag::kMeasured,
            cycles_repeat(P, [](const Pass& p) { return p.pr_iterations; }));
  rep.layer("backend_sequential.pass_s", seq_pass_s, "s");
  std::vector<double> pass_walls;
  for (const Pass& p : P) pass_walls.push_back(p.wall_s);
  const double pass_s = median(pass_walls);
  if (!gpusim) {
    rep.layer("backend_cpupar.pass_s", pass_s, "s", Tag::kMeasured, false,
              P.size());
    rep.layer("backend_cpupar.speedup_vs_sequential", seq_pass_s / pass_s,
              "x", Tag::kComputed);
    rep.layer("backend_cpupar.cpu_util",
              w.cpu_s / (w.wall_s * static_cast<double>(pool_threads)),
              "ratio");
  } else {
    auto exact = [&](auto f) { return cycles_repeat(P, f); };
    auto pp = [&](auto f) { return per_pass(P, f); };
    auto dev = [](auto member) {
      return [member](const Pass& p) { return p.dev.*member; };
    };
    rep.layer("sim_device_ms", 1e3 * pp([](const Pass& p) {
                return p.dev.sim_s();
              }),
              "ms", Tag::kModeled,
              exact([](const Pass& p) { return p.dev.sim_s(); }));
    rep.layer("gpu_sim.kernel_launches", pp(dev(&DevSum::launches)),
              "count", Tag::kMeasured, exact(dev(&DevSum::launches)));
    rep.layer("gpu_sim.launches_elided", pp(dev(&DevSum::elided)), "count",
              Tag::kMeasured, exact(dev(&DevSum::elided)));
    rep.layer("gpu_sim.kernel_ops", pp(dev(&DevSum::ops)), "count",
              Tag::kMeasured, exact(dev(&DevSum::ops)));
    rep.layer("gpu_sim.kernel_bytes", pp(dev(&DevSum::bytes)), "B",
              Tag::kComputed, exact(dev(&DevSum::bytes)));
    rep.layer("gpu_sim.ops_per_byte", pp([](const Pass& p) {
                return double(p.dev.ops) / double(std::max<std::uint64_t>(
                                               p.dev.bytes, 1));
              }),
              "ops/B", Tag::kComputed);
    rep.layer("gpu_sim.sim_kernel_ms", 1e3 * pp(dev(&DevSum::kernel_s)),
              "ms", Tag::kModeled, exact(dev(&DevSum::kernel_s)));
    rep.layer("gpu_sim.sim_transfer_ms", 1e3 * pp(dev(&DevSum::transfer_s)),
              "ms", Tag::kModeled, exact(dev(&DevSum::transfer_s)));
    rep.layer("gpu_sim.h2d_bytes", pp(dev(&DevSum::h2d)), "B",
              Tag::kComputed, exact(dev(&DevSum::h2d)));
    rep.layer("gpu_sim.d2h_bytes", pp(dev(&DevSum::d2h)), "B",
              Tag::kComputed, exact(dev(&DevSum::d2h)));
    rep.layer("gpu_sim.pool_hit_rate", pp([](const Pass& p) {
                const auto t = p.dev.pool_hits + p.dev.pool_misses;
                return t ? double(p.dev.pool_hits) / double(t) : 0.0;
              }),
              "ratio", Tag::kComputed);
    rep.layer("gpu_sim.host_us_per_launch", pp([](const Pass& p) {
                return 1e6 * p.wall_s /
                       double(std::max<std::uint64_t>(p.dev.launches, 1));
              }),
              "us");
    rep.layer("gpu_sim.host_ms_per_sim_ms", pp([](const Pass& p) {
                return p.wall_s / p.dev.sim_s();
              }),
              "ratio", Tag::kComputed);
    for (std::size_t k = 0; k < kJobKinds; ++k) {
      const std::string kind = to_string(static_cast<JobKind>(k));
      auto sim = [k](const Pass& p) { return p.dev.kind_sim_s[k]; };
      auto launches = [k](const Pass& p) { return p.dev.kind_launches[k]; };
      rep.layer("gpu_sim." + kind + ".sim_ms", 1e3 * pp(sim), "ms",
                Tag::kModeled, exact(sim));
      rep.layer("gpu_sim." + kind + ".launches", pp(launches), "count",
                Tag::kMeasured, exact(launches));
    }
    rep.layer("sparse.pull_share", pp([](const Pass& p) {
                return double(p.dev.pull) /
                       double(std::max<std::uint64_t>(p.dev.directions, 1));
              }),
              "ratio", Tag::kComputed);
    rep.layer("sparse.bit_selections", pp(dev(&DevSum::bit)), "count",
              Tag::kMeasured, exact(dev(&DevSum::bit)));
    rep.layer("sparse.fused_launches", pp(dev(&DevSum::fused)), "count",
              Tag::kMeasured, exact(dev(&DevSum::fused)));
    rep.layer("sparse.hash_share", pp([](const Pass& p) {
                return double(p.dev.hash) /
                       double(std::max<std::uint64_t>(p.dev.spgemms, 1));
              }),
              "ratio", Tag::kComputed);
    rep.layer("sparse.masked_products_avoided",
              pp(dev(&DevSum::masked_avoided)), "count", Tag::kMeasured,
              exact(dev(&DevSum::masked_avoided)));
  }

  if (traced) {
    const double traced_jps = static_cast<double>(tw.jobs) / tw.busy_s;
    rep.layer("trace.overhead_pct", 100.0 * (jps - traced_jps) / jps, "%",
              Tag::kComputed);
    // Direct grb:: op calls on the workload graph, once per backend.
    auto put_ops = [&](const std::map<std::string, OpTime>& ops,
                       const std::string& prefix, bool sim) {
      for (const auto& [op, t] : ops) {
        rep.layer(prefix + op + "_ms", t.wall_ms, "ms");
        if (sim) rep.layer(prefix + op + "_sim_ms", t.sim_ms, "ms",
                           Tag::kModeled, true);
      }
    };
    {
      Span s("gbtl.ops", "gbtl");
      put_ops(engine->ops(in), "gbtl.", gpusim);
      put_ops(seq->ops(in), "gbtl.seq.", false);
    }
    if (!gpusim) {
      // One root cycle on real threads: an nproc-thread pool, outputs
      // checked against the oracle like every other pass.
      {
        Span s("pass.nproc_pool", "analytics");
        gpu_sim::ThreadPool wide(opt.nproc);
        std::unique_ptr<Engine> par = make_cpupar_engine(wide);
        par->build(in);
        std::vector<double> walls;
        for (std::size_t k = 0; k < kRootCycle; ++k)
          walls.push_back(run_pass(*par, cycle.jobs[k], cycle.oracle[k], rep,
                                   nullptr, deg, request_id)
                              .wall_s);
        const double wide_pass_s = median(walls);
        rep.layer("backend_cpupar.nproc_pass_s", wide_pass_s, "s",
                  Tag::kMeasured, false, walls.size());
        rep.layer("backend_cpupar.nproc_speedup_vs_sequential",
                  seq_pass_s / wide_pass_s, "x", Tag::kComputed);
      }
      // The CpuPar lane model: chunks run inline and are charged to a
      // greedy schedule over nproc lanes. Printed beside the measured
      // nproc pass; moves nothing.
      grb::cpupar_backend::Meter meter(opt.nproc);
      const auto t0 = Clock::now();
      {
        Span s("pass.metered", "analytics");
        grb::cpupar_backend::ScopedMeter bind(meter);
        for (std::size_t k = 0; k < kRootCycle; ++k)
          run_pass(*engine, cycle.jobs[k], cycle.oracle[k], rep, nullptr, deg,
                   request_id);
      }
      const double wall = seconds_between(t0, Clock::now());
      rep.layer("backend_cpupar.modeled_pass_s",
                (wall - meter.serial_sum() + meter.modeled_sum()) /
                    static_cast<double>(kRootCycle),
                "s", Tag::kModeled);
    }
  }
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return rep;
}

}  // namespace perfbench
