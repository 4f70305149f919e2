/// @file serve.cpp
/// The two serving workloads: a closed loop from one client thread keeping
/// four queries outstanding against service::QueryExecutor (kAuto, two
/// workers, a CpuPar pool per worker). serve-mutate adds GraphStore writes
/// from the same client thread after every two queries.
///
/// Latency is client-observed, submit to ready. Each outstanding query has a
/// waiter thread blocked on its future, which stamps the moment the result
/// is ready — reading futures in submission order would instead charge a
/// fast query for a slow one submitted before it.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "algorithms/incremental.hpp"
#include "bench.hpp"
#include "graph/graph_matrix.hpp"
#include "graphs.hpp"
#include "service/executor.hpp"

namespace perfbench {

namespace {

using service::QueryKind;
using service::QueryRequest;
using service::QueryResult;
using service::QueryStatus;

constexpr int kSetupReps = 3;
constexpr std::size_t kOutstanding = 4;
constexpr std::size_t kMinQueries = 1000;
constexpr std::size_t kSourcesPerGraph = 16;
constexpr std::size_t kQueriesPerWrite = 2;
constexpr double kSampleShare = 0.08;  ///< serve-mutate results re-checked
const char* const kGraphNames[2] = {"small", "large"};

/// Query kinds per graph: `large` gets no triangle counts.
const std::vector<QueryKind> kKinds[2] = {
    {QueryKind::kBfs, QueryKind::kSssp, QueryKind::kPageRank,
     QueryKind::kConnectedComponents, QueryKind::kTriangleCount},
    {QueryKind::kBfs, QueryKind::kSssp, QueryKind::kPageRank,
     QueryKind::kConnectedComponents}};

const char* kind_name(QueryKind k) {
  switch (k) {
    case QueryKind::kBfs: return "bfs";
    case QueryKind::kSssp: return "sssp";
    case QueryKind::kPageRank: return "pagerank";
    case QueryKind::kConnectedComponents: return "cc";
    case QueryKind::kTriangleCount: return "tc";
    default: return "unknown";
  }
}

bool has_source(QueryKind k) {
  return k == QueryKind::kBfs || k == QueryKind::kSssp;
}

struct ServeInputs {
  EdgeList graphs[2];
  std::vector<Index> sources[2];
};

ServeInputs make_serve_inputs(std::uint64_t seed) {
  ServeInputs in;
  in.graphs[0] = rmat_graph(10, seed, /*symmetric=*/true, /*weighted=*/true);
  in.graphs[1] = rmat_graph(13, seed, /*symmetric=*/true, /*weighted=*/true);
  for (int g = 0; g < 2; ++g)
    in.sources[g] = pick_roots(in.graphs[g], kSourcesPerGraph,
                               sub_seed(seed, 20 + g));
  return in;
}

/// One query as the client planned it.
struct Planned {
  int graph = 0;
  QueryRequest req;
};

/// The query stream: three of every four queries go to `small`.
class Mix {
 public:
  Mix(const ServeInputs& in, std::uint64_t seed, bool incremental_half)
      : in_(in), rng_(seed), incremental_half_(incremental_half) {}

  Planned next() {
    Planned p;
    p.graph = (count_++ % 4 == 3) ? 1 : 0;
    p.req.graph = kGraphNames[p.graph];
    const auto& kinds = kKinds[p.graph];
    p.req.kind = kinds[rng_.below(kinds.size())];
    if (has_source(p.req.kind))
      p.req.source = in_.sources[p.graph][rng_.below(kSourcesPerGraph)];
    p.req.damping = 0.85;
    p.req.tol = 0.0;  // fixed work: always 15 iterations
    p.req.max_iterations = 15;
    if (incremental_half_ && (p.req.kind == QueryKind::kPageRank ||
                              p.req.kind == QueryKind::kConnectedComponents))
      p.req.incremental = rng_.below(2) == 0;
    return p;
  }

 private:
  const ServeInputs& in_;
  Rng rng_;
  bool incremental_half_;
  std::uint64_t count_ = 0;
};

/// Seeded write batches: 32 symmetric edge adds, plus 8 symmetric removes
/// of original edges on `large`.
class Writer {
 public:
  Writer(const ServeInputs& in, std::uint64_t seed) : in_(in), rng_(seed) {}

  void next(int g, EdgeList& adds, EdgeList& removes) {
    const EdgeList& base = in_.graphs[g];
    adds = EdgeList{};
    removes = EdgeList{};
    adds.num_vertices = removes.num_vertices = base.num_vertices;
    for (int e = 0; e < 32; ++e) {
      const Index u = rng_.below(base.num_vertices);
      Index v = rng_.below(base.num_vertices);
      if (u == v) v = (v + 1) % base.num_vertices;
      const double w = 1.0 + static_cast<double>(rng_.below(255));
      adds.src.insert(adds.src.end(), {u, v});
      adds.dst.insert(adds.dst.end(), {v, u});
      adds.weight.insert(adds.weight.end(), {w, w});
    }
    if (g != 1) return;
    for (int e = 0; e < 8; ++e) {
      for (int tries = 0; tries < 64; ++tries) {
        const Index k = rng_.below(base.num_edges());
        const Index u = base.src[k], v = base.dst[k];
        if (!removed_.insert({std::min(u, v), std::max(u, v)}).second) continue;
        removes.src.insert(removes.src.end(), {u, v});
        removes.dst.insert(removes.dst.end(), {v, u});
        break;
      }
    }
  }

 private:
  const ServeInputs& in_;
  Rng rng_;
  std::set<std::pair<Index, Index>> removed_;
};

/// One finished query, as the client saw it.
struct Done {
  std::size_t index = 0;
  Planned plan;
  /// Re-checked after the run (serve-mutate's seeded sample).
  bool sampled = false;
  /// Keep the payload; otherwise only its digest survives, so the results a
  /// run collects do not inflate the process's peak RSS.
  bool keep = false;
  Clock::time_point submitted, ready;
  QueryResult result;
  std::uint64_t digest = 0;
};

/// FNV-1a over a result's payload bytes.
std::uint64_t payload_digest(const QueryResult& r, bool with_scalar = true) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  const std::uint64_t sizes[3] = {r.indices.size(), r.ivals.size(),
                                  r.dvals.size()};
  mix(sizes, sizeof(sizes));
  mix(r.indices.data(), r.indices.size() * sizeof(r.indices[0]));
  mix(r.ivals.data(), r.ivals.size() * sizeof(r.ivals[0]));
  mix(r.dvals.data(), r.dvals.size() * sizeof(double));
  if (with_scalar) mix(&r.scalar, sizeof(r.scalar));
  return h;
}

/// The waiter threads: one per outstanding slot, each blocked on its
/// slot's future and stamping the moment the result is ready.
class Waiters {
 public:
  Waiters() {
    for (std::size_t s = 0; s < kOutstanding; ++s)
      threads_.emplace_back([this, s] { loop(s); });
  }
  ~Waiters() {
    {
      std::lock_guard<std::mutex> lock(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void hand(std::size_t slot, std::future<QueryResult> f, Done d) {
    {
      std::lock_guard<std::mutex> lock(m_);
      slots_[slot].future = std::move(f);
      slots_[slot].done = std::move(d);
    }
    cv_.notify_all();
  }

  /// Block until some slot completes; returns the slot and its record.
  std::pair<std::size_t, Done> take() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return !finished_.empty(); });
    const std::size_t s = finished_.front();
    finished_.pop_front();
    return {s, std::move(slots_[s].done)};
  }

 private:
  struct Slot {
    std::optional<std::future<QueryResult>> future;
    Done done;
  };

  void loop(std::size_t s) {
    std::unique_lock<std::mutex> lock(m_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || slots_[s].future.has_value(); });
      if (stop_ && !slots_[s].future) return;
      std::future<QueryResult> f = std::move(*slots_[s].future);
      slots_[s].future.reset();
      const bool keep = slots_[s].done.keep;
      lock.unlock();
      f.wait();
      const auto ready = Clock::now();
      QueryResult r = f.get();
      const std::uint64_t digest = payload_digest(r);
      if (!keep) {
        r.indices = {};
        r.ivals = {};
        r.dvals = {};
      }
      lock.lock();
      slots_[s].done.ready = ready;
      slots_[s].done.result = std::move(r);
      slots_[s].done.digest = digest;
      finished_.push_back(s);
      cv_.notify_all();
    }
  }

  std::mutex m_;
  std::condition_variable cv_;
  Slot slots_[kOutstanding];
  std::deque<std::size_t> finished_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

std::string oracle_key(int g, const QueryRequest& r, std::uint64_t version) {
  return std::to_string(g) + "/" + kind_name(r.kind) + "/" +
         std::to_string(has_source(r.kind) ? r.source : 0) + "@" +
         std::to_string(version);
}

struct Window {
  std::vector<Done> done;
  std::vector<double> write_ms, compaction_ms;
  std::size_t compactions = 0;
  double wall_s = 0.0;
  double steal_pct = 0.0;
  service::ServiceStats stats;  ///< delta-relevant snapshot at the end
  service::ServiceStats stats_before;
};

/// Snapshots kept per graph besides the pinned ones: a result is stamped
/// with a version at most a few writes past the head it was submitted at.
constexpr std::size_t kRecentSnapshots = 64;

struct Server {
  std::shared_ptr<service::GraphStore> store;
  std::unique_ptr<service::QueryExecutor> exec;
  /// Snapshots a check needs, by (graph, version): the loaded graphs and
  /// the versions sampled results were stamped with.
  std::map<std::pair<int, std::uint64_t>, service::SnapshotPtr> snapshots;
  /// The latest snapshots apply_edges returned, per graph.
  std::deque<service::SnapshotPtr> recent[2];

  /// Pin the snapshot of (g, version) for a later check.
  bool pin(int g, std::uint64_t version) {
    if (snapshots.count({g, version})) return true;
    for (const auto& snap : recent[g])
      if (snap->version == version) {
        snapshots[{g, version}] = snap;
        return true;
      }
    return false;
  }
};

}  // namespace

Report run_serve(const Options& opt, bool mutate) {
  Report rep;
  Trace& trace = Trace::instance();
  service::ExecutorOptions eo;
  eo.workers = 2;
  // One CpuPar worker per executor worker: a wider pool's barrier wake-ups
  // make wall time track host steal (perfbench/README.md, "Noise on a
  // shared host"), and the service already runs two queries at once.
  eo.cpupar_threads = 1;
  eo.backend_mode = service::BackendMode::kAuto;
  check_threads(opt, eo.workers * eo.cpupar_threads,
                mutate ? "serve-mutate" : "serve-read");
  rep.info["compute_threads"] = std::to_string(eo.workers * eo.cpupar_threads);

  ServeInputs in;
  Server srv;
  std::vector<double> setup_s, gen_s, build_s;
  std::vector<Done> warmup;

  // --- Set-up, repeated: generate, GraphStore::add, executor, warm-up.
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    Span setup_span("setup", "setup");
    srv = Server{};
    in = ServeInputs{};
    warmup.clear();
    const auto t0 = Clock::now();
    {
      Span s("graph.generate", "graph");
      in = make_serve_inputs(opt.seed);
    }
    const auto t1 = Clock::now();
    {
      Span s("graph.build_matrix", "graph");
      srv.store = std::make_shared<service::GraphStore>();
      for (int g = 0; g < 2; ++g) {
        auto snap = srv.store->add(kGraphNames[g], in.graphs[g]);
        srv.snapshots[{g, snap->version}] = snap;
      }
      srv.exec = std::make_unique<service::QueryExecutor>(srv.store, eo);
    }
    const auto t2 = Clock::now();
    {
      // Warm-up: every (graph, kind) twice at once, so both workers build
      // their host matrices / device uploads before timing starts.
      Span s("setup.warmup", "setup");
      std::vector<std::pair<Planned, std::future<QueryResult>>> futs;
      for (int g = 0; g < 2; ++g)
        for (QueryKind k : kKinds[g])
          for (int copy = 0; copy < 2; ++copy) {
            Planned p;
            p.graph = g;
            p.req.graph = kGraphNames[g];
            p.req.kind = k;
            p.req.source = in.sources[g][copy];
            p.req.tol = 0.0;
            p.req.max_iterations = 15;
            futs.emplace_back(p, srv.exec->submit(p.req));
          }
      for (auto& [p, f] : futs) {
        Done d;
        d.plan = p;
        d.result = f.get();
        warmup.push_back(std::move(d));
      }
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
    gen_s.push_back(seconds_between(t0, t1));
    build_s.push_back(seconds_between(t1, t2));
  }

  // --- serve-read oracle: serial answers per (graph, kind, source) on the
  // graphs as loaded, outside every window.
  std::map<std::string, QueryResult> oracle;
  auto oracle_for = [&](int g, const QueryRequest& req,
                        std::uint64_t version) -> const QueryResult& {
    const std::string key = oracle_key(g, req, version);
    auto it = oracle.find(key);
    if (it == oracle.end()) {
      Span s("oracle", "check");
      const auto& snap = srv.snapshots.at({g, version});
      it = oracle
               .emplace(key,
                        service::QueryExecutor::execute_serial_on(*snap, req))
               .first;
    }
    return it->second;
  };
  auto check_cold = [&](const Done& d) {
    Span s("oracle.check", "check", d.index);
    const QueryResult& want =
        oracle_for(d.plan.graph, d.plan.req, d.result.version);
    if (d.digest != payload_digest(want))
      rep.mismatch(std::string(d.plan.req.graph) + " " +
                   kind_name(d.plan.req.kind) + " query " +
                   std::to_string(d.index) + " differs from the serial oracle");
  };
  if (!mutate) {
    for (int g = 0; g < 2; ++g) {
      Planned p;
      for (QueryKind k : kKinds[g]) {
        p.req.kind = k;
        p.req.tol = 0.0;
        p.req.max_iterations = 15;
        if (has_source(k)) {
          for (Index src : in.sources[g]) {
            p.req.source = src;
            oracle_for(g, p.req, 1);
          }
        } else {
          oracle_for(g, p.req, 1);
        }
      }
    }
  }
  for (Done& d : warmup) {
    d.digest = payload_digest(d.result);
    if (d.result.status != QueryStatus::kOk)
      rep.mismatch("warm-up query did not resolve ok: " + d.result.error);
    else
      check_cold(d);
  }

  // --- The closed loop.
  Mix mix(in, sub_seed(opt.seed, 30), mutate);
  Writer writer(in, sub_seed(opt.seed, 31));
  const std::uint64_t sample_seed = sub_seed(opt.seed, 32);
  std::size_t next_index = 0;
  int write_graph = 0;

  auto run_window = [&](double seconds) {
    Window win;
    Span window_span("window", "service");
    const std::uint64_t parent = trace.current();
    win.stats_before = srv.exec->stats();
    Waiters waiters;
    std::size_t submitted_here = 0, outstanding = 0;
    const CpuTicks ticks0 = cpu_ticks();
    const auto t0 = Clock::now();
    auto submit = [&](std::size_t slot) {
      Done d;
      d.index = next_index++;
      d.plan = mix.next();
      d.sampled = mutate && Rng(sample_seed + d.index).below(1u << 20) <
                                kSampleShare * (1u << 20);
      // Incremental PageRank results may have seeded a warm start.
      d.keep = d.sampled || (mutate && d.plan.req.incremental &&
                             d.plan.req.kind == QueryKind::kPageRank);
      d.submitted = Clock::now();
      auto f = srv.exec->submit(d.plan.req);
      waiters.hand(slot, std::move(f), std::move(d));
      ++submitted_here;
      ++outstanding;
      if (mutate && submitted_here % kQueriesPerWrite == 0) {
        EdgeList adds, removes;
        writer.next(write_graph, adds, removes);
        const auto before = srv.store->stats();
        const auto w0 = Clock::now();
        service::SnapshotPtr snap;
        {
          Span s("apply_edges", "service");
          snap = srv.store->apply_edges(kGraphNames[write_graph], adds,
                                        removes);
        }
        const double ms = 1e3 * seconds_between(w0, Clock::now());
        win.write_ms.push_back(ms);
        if (srv.store->stats().compactions != before.compactions) {
          ++win.compactions;
          win.compaction_ms.push_back(ms);
        }
        auto& recent = srv.recent[write_graph];
        recent.push_back(snap);
        if (recent.size() > kRecentSnapshots) recent.pop_front();
        write_graph ^= 1;
      }
    };
    for (std::size_t s = 0; s < kOutstanding; ++s) submit(s);
    while (outstanding > 0) {
      auto [slot, d] = waiters.take();
      --outstanding;
      if (trace.enabled()) {
        const std::string name =
            std::string("query.") + d.plan.req.graph + "." +
            kind_name(d.plan.req.kind);
        trace.record(name.c_str(), "service", d.submitted, d.ready, parent,
                     d.index);
      }
      if (d.sampled && d.result.status == QueryStatus::kOk &&
          !srv.pin(d.plan.graph, d.result.version))
        rep.mismatch("snapshot of version " +
                     std::to_string(d.result.version) +
                     " was not retained for its check");
      const bool more = seconds_between(t0, Clock::now()) < seconds ||
                        win.done.size() + outstanding < kMinQueries;
      win.done.push_back(std::move(d));
      if (more) submit(slot);
    }
    win.wall_s = seconds_between(t0, Clock::now());
    win.steal_pct = steal_pct(ticks0, cpu_ticks());
    win.stats = srv.exec->stats();
    return win;
  };

  const bool traced = opt.trace;
  Window plain, tw;
  if (traced) {
    trace.enable(false);
    plain = run_window(opt.seconds / 2);
    trace.enable(true);
    tw = run_window(opt.seconds / 2);
  } else {
    plain = run_window(opt.seconds);
  }

  // --- Correctness, after the windows.
  std::vector<const Done*> all;
  for (const Window* w : {&plain, &tw})
    for (const Done& d : w->done) all.push_back(&d);
  for (const Done* d : all) {
    ++rep.attempted;
    if (d->result.status != QueryStatus::kOk) ++rep.failed;
  }
  if (!mutate) {
    for (const Done* d : all)
      if (d->result.status == QueryStatus::kOk) check_cold(*d);
  } else {
    // Re-run a seeded sample serially against the snapshot each result was
    // stamped with. A warm-started PageRank is checked against the warm
    // serial solve from any incremental result of the previous version
    // (the executor seeded it from one of them); a warm-started CC's labels
    // must equal the cold ones (its round count is its own).
    std::size_t checked = 0, warm_checked = 0;
    for (const Done* d : all) {
      if (!d->sampled || d->result.status != QueryStatus::kOk) continue;
      ++checked;
      if (!d->result.warm_start) {
        check_cold(*d);
        continue;
      }
      ++warm_checked;
      Span s("oracle.check", "check", d->index);
      const QueryResult& cold =
          oracle_for(d->plan.graph, d->plan.req, d->result.version);
      if (d->plan.req.kind == QueryKind::kConnectedComponents) {
        if (payload_digest(d->result, /*with_scalar=*/false) !=
            payload_digest(cold, /*with_scalar=*/false))
          rep.mismatch("warm cc query " + std::to_string(d->index) +
                       " labels differ from the cold serial oracle");
        continue;
      }
      const auto& snap = srv.snapshots.at({d->plan.graph, d->result.version});
      const auto graph =
          gbtl_graph::to_matrix<double, grb::Sequential>(snap->materialize());
      bool matched = false;
      for (const Done* seed : all) {
        if (seed->plan.graph != d->plan.graph ||
            seed->plan.req.kind != QueryKind::kPageRank ||
            !seed->plan.req.incremental ||
            seed->result.status != QueryStatus::kOk ||
            seed->result.version != snap->prev_version)
          continue;
        grb::Vector<double, grb::Sequential> rank(graph.nrows());
        rank.build(seed->result.indices, seed->result.dvals);
        algorithms::pagerank_warm(graph, rank, d->plan.req.damping,
                                  d->plan.req.tol, d->plan.req.max_iterations);
        QueryResult want;
        rank.extractTuples(want.indices, want.dvals);
        if (d->digest == payload_digest(want)) {
          matched = true;
          break;
        }
      }
      if (!matched)
        rep.mismatch("warm pagerank query " + std::to_string(d->index) +
                     " matches no warm serial solve");
    }
    rep.info["mutate_results_checked"] = std::to_string(checked);
    rep.info["mutate_warm_results_checked"] = std::to_string(warm_checked);
  }

  // --- End-to-end metrics (untraced window).
  const Window& w = plain;
  std::vector<double> lat_ms, exec_ms, handoff_us;
  std::map<std::string, std::vector<double>> by_kind, by_pair;
  std::size_t ran_cpupar = 0, ran_gpusim = 0, first_n = 0;
  for (const Done& d : w.done) {
    const double ms = 1e3 * seconds_between(d.submitted, d.ready);
    lat_ms.push_back(ms);
    by_kind[kind_name(d.plan.req.kind)].push_back(ms);
    by_pair[std::string(d.plan.req.graph) + "." + kind_name(d.plan.req.kind)]
        .push_back(ms);
    const double ex_ms = 1e-3 * static_cast<double>(d.result.latency.count());
    exec_ms.push_back(ex_ms);
    handoff_us.push_back(1e3 * (ms - ex_ms));
    if (first_n++ < kMinQueries) {
      ran_cpupar += d.result.backend == "cpupar";
      ran_gpusim += d.result.backend == "gpusim";
    }
  }
  rep.e2e("setup_s", median(setup_s), "s", setup_s.size());
  rep.e2e("jobs_per_s", static_cast<double>(w.done.size()) / w.wall_s, "1/s",
          w.done.size());
  for (const char* k : {"bfs", "sssp", "pagerank", "cc", "tc"})
    rep.e2e(std::string(k) + "_ms", median(by_kind[k]), "ms",
            by_kind[k].size());
  rep.e2e("latency_p50_ms", quantile(lat_ms, 0.5), "ms",
          lat_ms.size());
  rep.e2e("latency_p99_ms", quantile(lat_ms, 0.99), "ms",
          lat_ms.size());

  // --- Per-layer metrics.
  const auto& s1 = w.stats;
  const auto& s0 = w.stats_before;
  rep.layer("error_rate",
            rep.attempted ? double(rep.failed) / double(rep.attempted) : 0.0,
            "ratio", Tag::kComputed);
  rep.layer("graph.generate_s", median(gen_s), "s");
  rep.layer("graph.build_matrix_s", median(build_s), "s");
  for (int g = 0; g < 2; ++g)
    for (QueryKind k : kKinds[g]) {
      const std::string pair = std::string(kGraphNames[g]) + "." + kind_name(k);
      rep.layer("service." + pair + ".p50_ms", median(by_pair[pair]), "ms",
                Tag::kMeasured, false, by_pair[pair].size());
    }
  rep.layer("service.executor_ms_p50", median(exec_ms), "ms");
  rep.layer("service.handoff_us_p50", median(handoff_us), "us");
  rep.layer("service.ran_cpupar", double(ran_cpupar), "count",
            Tag::kMeasured, !mutate);
  rep.layer("service.ran_gpusim", double(ran_gpusim), "count",
            Tag::kMeasured, !mutate);
  const double warm = double(s1.warm_starts - s0.warm_starts);
  const double cold = double(s1.cold_fallbacks - s0.cold_fallbacks);
  rep.layer("service.result_cache_hits",
            double(s1.result_cache_hits - s0.result_cache_hits), "count");
  rep.layer("service.warm_starts", warm, "count");
  rep.layer("service.cold_fallbacks", cold, "count");
  rep.layer("service.warm_start_ratio",
            warm + cold > 0 ? warm / (warm + cold) : 0.0, "ratio",
            Tag::kComputed);
  rep.layer("service.cache_invalidations",
            double(s1.cache_invalidations - s0.cache_invalidations), "count");
  rep.layer("service.store.compactions", double(w.compactions), "count");
  rep.layer("service.store.compaction_ms", median(w.compaction_ms), "ms",
            Tag::kMeasured, false, w.compaction_ms.size());
  if (mutate)
    rep.layer("write_p50_ms", median(w.write_ms), "ms", Tag::kMeasured, false,
              w.write_ms.size());
  {
    // The executor's latency histogram against the raw samples of the same
    // queries (every query it resolved: warm-up of the kept set-up plus all
    // windows).
    std::vector<double> raw_us;
    for (const Done& d : warmup)
      raw_us.push_back(static_cast<double>(d.result.latency.count()));
    for (const Done* d : all)
      raw_us.push_back(static_cast<double>(d->result.latency.count()));
    const double raw = quantile(raw_us, 0.99);
    const double hist = srv.exec->stats().latency.quantile(0.99);
    rep.layer("service.hist_p99_rel_err", std::abs(hist - raw) / raw, "ratio",
              Tag::kComputed, false, raw_us.size());
  }
  if (traced) {
    const double jps = static_cast<double>(plain.done.size()) / plain.wall_s;
    const double tjps = static_cast<double>(tw.done.size()) / tw.wall_s;
    rep.layer("trace.overhead_pct", 100.0 * (jps - tjps) / jps, "%",
              Tag::kComputed);
  }
  rep.info["queries"] = std::to_string(w.done.size());
  rep.info["host_steal_pct"] = std::to_string(w.steal_pct);
  rep.info["writes"] = std::to_string(w.write_ms.size());
  srv.exec->shutdown();
  rep.e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return rep;
}

}  // namespace perfbench
