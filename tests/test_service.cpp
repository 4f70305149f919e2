/// Serving-layer unit tests: ScopedDevice thread-local rebinding, the
/// ExecutionPolicy cancellation contract (including the documented
/// partial-output state), GraphStore snapshot semantics, the per-worker
/// DeviceGraphCache, admission-queue load shedding, the latency histogram,
/// and executor end-to-end behaviour on every status path — plus the
/// per-query backend-selection seam: crossover-boundary placement, forced
/// modes, the ran_cpupar/ran_gpusim counters, and the per-worker
/// HostGraphCache that backs the CpuPar path.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/bfs.hpp"
#include "algorithms/pagerank.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "gpu_sim/error.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "service/dispatch.hpp"
#include "service/executor.hpp"
#include "service/graph_store.hpp"
#include "service/query.hpp"
#include "service/stats.hpp"

namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// --- ScopedDevice ----------------------------------------------------------

TEST(ScopedDevice, RebindsAndRestores) {
  gpu_sim::Context& original = gpu_sim::device();
  gpu_sim::Context mine;
  {
    gpu_sim::ScopedDevice bind(mine);
    EXPECT_EQ(&gpu_sim::device(), &mine);
  }
  EXPECT_EQ(&gpu_sim::device(), &original);
}

TEST(ScopedDevice, GuardsNest) {
  gpu_sim::Context outer, inner;
  gpu_sim::ScopedDevice bind_outer(outer);
  EXPECT_EQ(&gpu_sim::device(), &outer);
  {
    gpu_sim::ScopedDevice bind_inner(inner);
    EXPECT_EQ(&gpu_sim::device(), &inner);
  }
  EXPECT_EQ(&gpu_sim::device(), &outer);
}

TEST(ScopedDevice, BindingIsThreadLocal) {
  gpu_sim::Context mine;
  gpu_sim::ScopedDevice bind(mine);
  gpu_sim::Context* seen_by_other_thread = nullptr;
  std::thread peer(
      [&] { seen_by_other_thread = &gpu_sim::device(); });
  peer.join();
  // The peer never installed a guard, so it sees the shared default device,
  // not this thread's override.
  EXPECT_NE(seen_by_other_thread, &mine);
  EXPECT_EQ(&gpu_sim::device(), &mine);
}

TEST(ScopedDevice, BackendObjectsLandInTheBoundContext) {
  gpu_sim::Context mine;
  const auto before = mine.stats();
  {
    gpu_sim::ScopedDevice bind(mine);
    grb::Vector<double, grb::GpuSim> v(1024);
    v.setElement(7, 1.0);
  }
  const auto after = mine.stats();
  EXPECT_GT(after.total_bytes_allocated, before.total_bytes_allocated);
}

// --- ExecutionPolicy -------------------------------------------------------

TEST(ExecutionPolicy, DefaultIsUnlimited) {
  grb::ExecutionPolicy p;
  EXPECT_FALSE(p.has_deadline());
  EXPECT_FALSE(p.expired());
  EXPECT_FALSE(p.cancelled());
  for (int i = 0; i < 1000; ++i) EXPECT_NO_THROW(p.checkpoint("test"));
}

TEST(ExecutionPolicy, PastDeadlineTripsCheckpoint) {
  const auto p = grb::ExecutionPolicy::with_deadline(Clock::now() - 1ms);
  EXPECT_TRUE(p.expired());
  EXPECT_THROW(p.checkpoint("test"), grb::CancelledException);
}

TEST(ExecutionPolicy, CancelTokenTripsCheckpoint) {
  grb::CancelToken token = grb::make_cancel_token();
  grb::ExecutionPolicy p;
  p.set_cancel_token(token);
  EXPECT_NO_THROW(p.checkpoint("test"));
  token->store(true);
  EXPECT_TRUE(p.cancelled());
  EXPECT_THROW(p.checkpoint("test"), grb::CancelledException);
}

TEST(ExecutionPolicy, IterationLimitPassesExactlyNCheckpoints) {
  const auto p = grb::ExecutionPolicy::with_iteration_limit(3);
  EXPECT_NO_THROW(p.checkpoint("test"));
  EXPECT_NO_THROW(p.checkpoint("test"));
  EXPECT_NO_THROW(p.checkpoint("test"));
  EXPECT_THROW(p.checkpoint("test"), grb::CancelledException);
}

TEST(ExecutionPolicy, CancelledExceptionNamesTheAlgorithm) {
  const auto p = grb::ExecutionPolicy::with_deadline(Clock::now() - 1ms);
  try {
    p.checkpoint("bfs_level");
    FAIL() << "checkpoint should have thrown";
  } catch (const grb::CancelledException& e) {
    EXPECT_NE(std::string(e.what()).find("bfs_level"), std::string::npos);
  }
}

/// The documented contract: an already-expired policy cancels before
/// iteration 1, so the output holds nothing at all.
TEST(ExecutionPolicy, ExpiredDeadlineCancelsBeforeFirstIteration) {
  const auto graph = gbtl_graph::to_matrix<double, grb::Sequential>(
      gbtl_graph::path(64));
  grb::Vector<grb::IndexType, grb::Sequential> levels(64);
  const auto p = grb::ExecutionPolicy::with_deadline(Clock::now() - 1ms);
  EXPECT_THROW(algorithms::bfs_level(graph, 0, levels, p),
               grb::CancelledException);
  EXPECT_EQ(levels.nvals(), 0u);
}

/// The other half of the contract: cancellation at the k+1'th boundary
/// leaves exactly the k completed iterations' results — bfs on a path
/// stamps one vertex per level, so a 3-iteration budget leaves levels
/// {0:1, 1:2, 2:3} and nothing else.
TEST(ExecutionPolicy, MidRunCancellationLeavesCompletedIterations) {
  const auto graph = gbtl_graph::to_matrix<double, grb::Sequential>(
      gbtl_graph::path(64));
  grb::Vector<grb::IndexType, grb::Sequential> levels(64);
  const auto p = grb::ExecutionPolicy::with_iteration_limit(3);
  EXPECT_THROW(algorithms::bfs_level(graph, 0, levels, p),
               grb::CancelledException);
  ASSERT_EQ(levels.nvals(), 3u);
  EXPECT_EQ(levels.extractElement(0), 1u);
  EXPECT_EQ(levels.extractElement(1), 2u);
  EXPECT_EQ(levels.extractElement(2), 3u);
}

// --- GraphStore ------------------------------------------------------------

TEST(GraphStore, AddThenGetRoundTrips) {
  service::GraphStore store;
  EXPECT_EQ(store.get("g"), nullptr);
  store.add("g", gbtl_graph::path(10));
  const auto snap = store.get("g");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->name, "g");
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->num_vertices(), 10u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(GraphStore, ReplaceBumpsVersionAndPreservesOldSnapshot) {
  service::GraphStore store;
  store.add("g", gbtl_graph::path(10));
  const auto old_snap = store.get("g");
  store.add("g", gbtl_graph::cycle(20));
  const auto new_snap = store.get("g");

  EXPECT_EQ(new_snap->version, 2u);
  EXPECT_EQ(new_snap->num_vertices(), 20u);
  // The snapshot handed out before the replace is untouched — in-flight
  // queries keep reading the graph they started with.
  EXPECT_EQ(old_snap->version, 1u);
  EXPECT_EQ(old_snap->num_vertices(), 10u);
}

TEST(GraphStore, NamesListsEveryGraph) {
  service::GraphStore store;
  store.add("a", gbtl_graph::path(4));
  store.add("b", gbtl_graph::cycle(4));
  auto names = store.names();
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

// --- DeviceGraphCache ------------------------------------------------------

TEST(DeviceGraphCache, UploadOnceThenHit) {
  service::GraphStore store;
  const auto snap = store.add("g", gbtl_graph::path(64));
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  service::DeviceGraphCache cache(ctx, 1 << 20);

  const auto a = cache.get_or_upload(snap);
  const auto b = cache.get_or_upload(snap);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(a->nrows(), 64u);
}

TEST(DeviceGraphCache, VersionBumpMisses) {
  service::GraphStore store;
  const auto v1 = store.add("g", gbtl_graph::path(64));
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  service::DeviceGraphCache cache(ctx, 1 << 20);

  cache.get_or_upload(v1);
  const auto v2 = store.add("g", gbtl_graph::path(65));
  const auto m = cache.get_or_upload(v2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(m->nrows(), 65u);
}

TEST(DeviceGraphCache, EvictsLeastRecentlyUsed) {
  service::GraphStore store;
  const auto a = store.add("a", gbtl_graph::path(64));
  const auto b = store.add("b", gbtl_graph::path(64));
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  // Budget fits one graph (estimate ~3 KiB each — CSR plus the CSC
  // transpose view the traversal engine may build), not two.
  service::DeviceGraphCache cache(ctx, 4096);

  cache.get_or_upload(a);
  cache.get_or_upload(b);  // evicts a
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entries(), 1u);
  cache.get_or_upload(a);  // misses again
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(DeviceGraphCache, TouchRefreshesRecency) {
  service::GraphStore store;
  const auto a = store.add("a", gbtl_graph::path(64));
  const auto b = store.add("b", gbtl_graph::path(64));
  const auto c = store.add("c", gbtl_graph::path(64));
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  // Budget fits two graphs (~3 KiB CSR+CSC estimate each), not three.
  service::DeviceGraphCache cache(ctx, 8192);

  cache.get_or_upload(a);
  cache.get_or_upload(b);
  cache.get_or_upload(a);  // a becomes MRU
  cache.get_or_upload(c);  // evicts b, not a
  EXPECT_EQ(cache.get_or_upload(a).get(), cache.get_or_upload(a).get());
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto hits_before = cache.stats().hits;
  cache.get_or_upload(b);  // b was the one evicted -> miss
  EXPECT_EQ(cache.stats().hits, hits_before);
}

TEST(DeviceGraphCache, EvictedMatrixStaysUsableWhileHeld) {
  service::GraphStore store;
  const auto a = store.add("a", gbtl_graph::path(64));
  const auto b = store.add("b", gbtl_graph::path(64));
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  service::DeviceGraphCache cache(ctx, 4096);

  const auto held = cache.get_or_upload(a);
  cache.get_or_upload(b);  // evicts a from the cache...
  // ...but the handle we kept is a live, fully functional device matrix.
  grb::Vector<grb::IndexType, grb::GpuSim> levels(held->nrows());
  algorithms::bfs_level(*held, 0, levels);
  EXPECT_EQ(levels.nvals(), 64u);
}

TEST(DeviceGraphCache, ZeroBudgetNeverRetains) {
  service::GraphStore store;
  const auto snap = store.add("g", gbtl_graph::path(16));
  gpu_sim::Context ctx;
  gpu_sim::ScopedDevice bind(ctx);
  service::DeviceGraphCache cache(ctx, 0);
  cache.get_or_upload(snap);
  cache.get_or_upload(snap);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(DeviceGraphCache, RefusesAForeignThreadBinding) {
  service::GraphStore store;
  const auto snap = store.add("g", gbtl_graph::path(16));
  gpu_sim::Context ctx;
  service::DeviceGraphCache cache(ctx, 1 << 20);
  // No ScopedDevice for ctx on this thread: using the cache would upload
  // into the wrong arena, so it must refuse loudly.
  EXPECT_THROW(cache.get_or_upload(snap), gpu_sim::DeviceError);
}

// --- BoundedQueue ----------------------------------------------------------

TEST(BoundedQueue, FifoOrder) {
  service::BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.try_push(int{i}));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop(), i);
}

TEST(BoundedQueue, RefusesWhenFull) {
  service::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  q.pop();
  EXPECT_TRUE(q.try_push(3));
}

TEST(BoundedQueue, CloseDrainsThenSignalsEnd) {
  service::BoundedQueue<int> q(8);
  q.try_push(1);
  q.try_push(2);
  q.close();
  EXPECT_FALSE(q.try_push(3));  // no admission after close
  EXPECT_EQ(q.pop(), 1);        // but queued items still drain
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  service::BoundedQueue<int> q(8);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(10ms);  // let it block
  q.close();
  consumer.join();
}

TEST(BoundedQueue, FailedPushDoesNotConsumeTheItem) {
  service::BoundedQueue<std::unique_ptr<int>> q(1);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(1)));
  auto survivor = std::make_unique<int>(2);
  EXPECT_FALSE(q.try_push(std::move(survivor)));
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(*survivor, 2);
}

// --- LatencyHistogram ------------------------------------------------------

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  service::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogram, QuantilesOfUniformSamples) {
  service::LatencyHistogram h;
  for (int us = 1; us <= 1000; ++us)
    h.record(std::chrono::microseconds(us));
  EXPECT_EQ(h.count(), 1000u);
  // Log-bucketed: allow the documented per-bucket relative error.
  EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 * 0.20);
  EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 * 0.20);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.20);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.0), h.quantile(0.5));
}

// Adversarial samples at both integer edges of every bucket from 2 µs to
// ~16 s: a lone sample at a bucket's bottom edge is reported at its top
// edge, the worst case of linear interpolation. Every quantile that lands
// on a sample must stay within the documented 2^(1/4) - 1 of it, and the
// worst case must come close to that bound.
TEST(LatencyHistogram, QuantileErrorBoundAtBucketEdges) {
  const double kBound = std::pow(2.0, 0.25) - 1.0;  // 0.1892...
  std::vector<std::int64_t> samples;
  for (int b = 4; b < 96; ++b) {
    const auto edge = [](int e) {
      return static_cast<std::int64_t>(std::ceil(std::pow(2.0, e / 4.0)));
    };
    const std::int64_t lo = edge(b), hi = edge(b + 1) - 1;
    if (lo > hi) continue;  // bucket holds no integer microsecond
    samples.push_back(lo);
    if (hi > lo) samples.push_back(hi);
  }
  service::LatencyHistogram h;
  for (const auto us : samples) h.record(std::chrono::microseconds(us));
  std::sort(samples.begin(), samples.end());
  const double last = static_cast<double>(samples.size() - 1);
  double worst = 0.0;
  for (std::size_t k = 0; k < samples.size(); ++k) {
    const double x = static_cast<double>(samples[k]);
    const double q = h.quantile(static_cast<double>(k) / last);
    const double err = std::abs(q - x) / x;
    EXPECT_LE(err, kBound + 1e-12) << "sample " << x << " quantile " << q;
    worst = std::max(worst, err);
  }
  EXPECT_GT(worst, 0.9 * kBound);
}

TEST(LatencyHistogram, MergeIsAdditive) {
  service::LatencyHistogram a, b;
  for (int i = 0; i < 100; ++i) a.record(std::chrono::microseconds(10));
  for (int i = 0; i < 100; ++i) b.record(std::chrono::microseconds(1000));
  a.merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_LT(a.quantile(0.25), 50.0);
  EXPECT_GT(a.quantile(0.75), 500.0);
}

// --- QueryExecutor ---------------------------------------------------------

std::shared_ptr<service::GraphStore> make_store() {
  auto store = std::make_shared<service::GraphStore>();
  store->add("path", gbtl_graph::path(128));
  store->add("rmat", gbtl_graph::rmat(6, 8, /*seed=*/42));
  return store;
}

service::ExecutorOptions small_options(std::size_t workers = 2) {
  service::ExecutorOptions o;
  o.workers = workers;
  o.queue_capacity = 64;
  return o;
}

TEST(QueryExecutor, BfsResultMatchesSerialOracle) {
  auto store = make_store();
  service::QueryExecutor exec(store, small_options());
  service::QueryRequest req;
  req.kind = service::QueryKind::kBfs;
  req.graph = "rmat";
  req.source = 3;

  const auto got = exec.submit(req).get();
  const auto want = service::QueryExecutor::execute_serial(*store, req);
  ASSERT_EQ(got.status, service::QueryStatus::kOk);
  EXPECT_EQ(got.indices, want.indices);
  EXPECT_EQ(got.ivals, want.ivals);
  EXPECT_GE(got.latency.count(), 0);
  EXPECT_LT(got.worker, 2u);
}

TEST(QueryExecutor, PageRankBitExactVsSerial) {
  auto store = make_store();
  service::QueryExecutor exec(store, small_options());
  service::QueryRequest req;
  req.kind = service::QueryKind::kPageRank;
  req.graph = "rmat";
  req.max_iterations = 50;

  const auto got = exec.submit(req).get();
  const auto want = service::QueryExecutor::execute_serial(*store, req);
  ASSERT_EQ(got.status, service::QueryStatus::kOk);
  ASSERT_EQ(got.indices, want.indices);
  ASSERT_EQ(got.dvals.size(), want.dvals.size());
  // Bit-exact, not approximately-equal: memcmp the doubles.
  EXPECT_EQ(std::memcmp(got.dvals.data(), want.dvals.data(),
                        got.dvals.size() * sizeof(double)),
            0);
}

TEST(QueryExecutor, UnknownGraphFails) {
  service::QueryExecutor exec(make_store(), small_options());
  service::QueryRequest req;
  req.graph = "no-such-graph";
  const auto res = exec.submit(req).get();
  EXPECT_EQ(res.status, service::QueryStatus::kFailed);
  EXPECT_NE(res.error.find("no-such-graph"), std::string::npos);
}

TEST(QueryExecutor, ExpiredDeadlineIsCancelledNotRun) {
  auto store = make_store();
  service::QueryExecutor exec(store, small_options(1));
  service::QueryRequest req;
  req.kind = service::QueryKind::kBfs;
  req.graph = "path";
  req.timeout = 0ms;  // already past its deadline at admission

  const auto res = exec.submit(req).get();
  EXPECT_EQ(res.status, service::QueryStatus::kCancelled);
  const auto stats = exec.stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(QueryExecutor, CancelTokenCancelsAQueuedQuery) {
  auto store = make_store();
  service::QueryExecutor exec(store, small_options(1));
  service::QueryRequest req;
  req.kind = service::QueryKind::kBfs;
  req.graph = "path";
  req.cancel = grb::make_cancel_token();
  req.cancel->store(true);  // caller gave up before the worker got to it

  const auto res = exec.submit(req).get();
  EXPECT_EQ(res.status, service::QueryStatus::kCancelled);
}

TEST(QueryExecutor, OverflowSheds) {
  auto store = make_store();
  service::ExecutorOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  service::QueryExecutor exec(store, opts);

  // Occupy the single worker with a cancellable long-runner (tol=0 never
  // converges, so only the iteration count or our token stops it).
  service::QueryRequest blocker;
  blocker.kind = service::QueryKind::kPageRank;
  blocker.graph = "rmat";
  blocker.tol = 0.0;
  blocker.max_iterations = 1000000;
  blocker.cancel = grb::make_cancel_token();
  auto blocker_future = exec.submit(blocker);

  // Saturate admission: with capacity 1 and the worker busy, pushing many
  // more must shed at least one (the worker can drain at most a few).
  service::QueryRequest quick;
  quick.kind = service::QueryKind::kBfs;
  quick.graph = "path";
  std::vector<std::future<service::QueryResult>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(exec.submit(quick));

  blocker.cancel->store(true);  // release the worker
  std::uint64_t shed = 0;
  for (auto& f : futures)
    if (f.get().status == service::QueryStatus::kShed) ++shed;
  EXPECT_GT(shed, 0u);
  EXPECT_EQ(exec.stats().shed, shed);
  blocker_future.get();  // cancelled or completed; just must resolve
}

TEST(QueryExecutor, SubmitAfterShutdownSheds) {
  auto store = make_store();
  service::QueryExecutor exec(store, small_options());
  exec.shutdown();
  service::QueryRequest req;
  req.graph = "path";
  const auto res = exec.submit(req).get();
  EXPECT_EQ(res.status, service::QueryStatus::kShed);
}

TEST(QueryExecutor, StatsPartitionResolvedQueries) {
  auto store = make_store();
  service::QueryExecutor exec(store, small_options());

  std::vector<std::future<service::QueryResult>> futures;
  service::QueryRequest ok;
  ok.kind = service::QueryKind::kBfs;
  ok.graph = "rmat";
  for (int i = 0; i < 4; ++i) futures.push_back(exec.submit(ok));
  service::QueryRequest bad;
  bad.graph = "missing";
  futures.push_back(exec.submit(bad));
  service::QueryRequest late;
  late.graph = "rmat";
  late.timeout = 0ms;
  futures.push_back(exec.submit(late));

  for (auto& f : futures) f.get();
  const auto stats = exec.stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.resolved(), stats.submitted);
  EXPECT_EQ(stats.latency.count(), 6u);  // every non-shed query is timed
}

TEST(QueryExecutor, ShutdownWithCancelPendingResolvesEverything) {
  auto store = make_store();
  service::ExecutorOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 32;
  auto exec = std::make_unique<service::QueryExecutor>(store, opts);

  service::QueryRequest req;
  req.kind = service::QueryKind::kPageRank;
  req.graph = "rmat";
  req.max_iterations = 30;
  std::vector<std::future<service::QueryResult>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(exec->submit(req));
  exec->shutdown(/*cancel_pending=*/true);

  std::uint64_t resolved = 0;
  for (auto& f : futures) {
    const auto res = f.get();  // must not hang or throw broken_promise
    EXPECT_TRUE(res.status == service::QueryStatus::kOk ||
                res.status == service::QueryStatus::kCancelled);
    ++resolved;
  }
  EXPECT_EQ(resolved, 8u);
  const auto stats = exec->stats();
  EXPECT_EQ(stats.resolved(), stats.submitted);
}

// --- Backend selection -----------------------------------------------------

TEST(QueryExecutor, AutoModePicksBackendAtTheCrossoverBoundary) {
  auto store = std::make_shared<service::GraphStore>();
  const auto small = store->add("small", gbtl_graph::path(64));
  const auto big = store->add("big", gbtl_graph::rmat(6, 8, /*seed=*/42));
  ASSERT_LT(small->num_edges(), big->num_edges());

  service::QueryRequest req;
  req.kind = service::QueryKind::kBfs;

  {
    // Boundary exactly at the big graph's nnz: strictly-below runs CpuPar,
    // at-or-above runs GpuSim.
    service::ExecutorOptions opts = small_options(1);
    opts.backend_mode = service::BackendMode::kAuto;
    opts.crossover_nnz = big->num_edges();
    service::QueryExecutor exec(store, opts);

    req.graph = "small";
    const auto on_small = exec.submit(req).get();
    ASSERT_EQ(on_small.status, service::QueryStatus::kOk);
    EXPECT_EQ(on_small.backend, "cpupar");

    req.graph = "big";
    const auto on_big = exec.submit(req).get();
    ASSERT_EQ(on_big.status, service::QueryStatus::kOk);
    EXPECT_EQ(on_big.backend, "gpusim");

    const auto stats = exec.stats();
    EXPECT_EQ(stats.ran_cpupar, 1u);
    EXPECT_EQ(stats.ran_gpusim, 1u);
  }
  {
    // One past the boundary: the big graph now sits strictly below the
    // crossover and lands on CpuPar too.
    service::ExecutorOptions opts = small_options(1);
    opts.backend_mode = service::BackendMode::kAuto;
    opts.crossover_nnz = big->num_edges() + 1;
    service::QueryExecutor exec(store, opts);
    req.graph = "big";
    const auto on_big = exec.submit(req).get();
    ASSERT_EQ(on_big.status, service::QueryStatus::kOk);
    EXPECT_EQ(on_big.backend, "cpupar");
    EXPECT_EQ(exec.stats().ran_cpupar, 1u);
    EXPECT_EQ(exec.stats().ran_gpusim, 0u);
  }
}

TEST(QueryExecutor, ForceModesOverrideGraphSize) {
  auto store = make_store();
  service::QueryRequest req;
  req.kind = service::QueryKind::kPageRank;
  req.graph = "rmat";
  req.max_iterations = 20;
  const auto want = service::QueryExecutor::execute_serial(*store, req);
  EXPECT_EQ(want.backend, "sequential");

  for (const auto mode : {service::BackendMode::kForceCpuPar,
                          service::BackendMode::kForceGpuSim}) {
    service::ExecutorOptions opts = small_options(1);
    opts.backend_mode = mode;
    service::QueryExecutor exec(store, opts);
    const auto got = exec.submit(req).get();
    ASSERT_EQ(got.status, service::QueryStatus::kOk);
    EXPECT_EQ(got.backend, mode == service::BackendMode::kForceCpuPar
                               ? "cpupar"
                               : "gpusim");
    // Placement, not math: both forced backends reproduce the serial
    // oracle's bytes.
    ASSERT_EQ(got.indices, want.indices);
    ASSERT_EQ(got.dvals.size(), want.dvals.size());
    EXPECT_EQ(std::memcmp(got.dvals.data(), want.dvals.data(),
                          got.dvals.size() * sizeof(double)),
              0);
    const auto stats = exec.stats();
    EXPECT_EQ(stats.ran_cpupar + stats.ran_gpusim, 1u);
  }
}

TEST(QueryExecutor, QueriesThatNeverRanCarryNoBackend) {
  auto store = make_store();
  service::QueryExecutor exec(store, small_options(1));
  service::QueryRequest req;
  req.kind = service::QueryKind::kBfs;
  req.graph = "path";
  req.timeout = 0ms;  // cancelled while queued -> no backend ever touched
  const auto res = exec.submit(req).get();
  ASSERT_EQ(res.status, service::QueryStatus::kCancelled);
  EXPECT_TRUE(res.backend.empty());
  const auto stats = exec.stats();
  EXPECT_EQ(stats.ran_cpupar, 0u);
  EXPECT_EQ(stats.ran_gpusim, 0u);
}

// --- HostGraphCache --------------------------------------------------------

TEST(HostGraphCache, BuildOnceThenHitAndVersionBumpMisses) {
  service::GraphStore store;
  const auto v1 = store.add("g", gbtl_graph::path(64));
  service::HostGraphCache cache;
  const auto a = cache.get_or_build(v1);
  const auto b = cache.get_or_build(v1);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(a->nrows(), 64u);

  const auto v2 = store.add("g", gbtl_graph::path(65));
  const auto c = cache.get_or_build(v2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(c->nrows(), 65u);
  EXPECT_EQ(cache.entries(), 1u);  // latest version only
  // The handle built from the replaced snapshot stays fully usable.
  grb::Vector<grb::IndexType, grb::CpuPar> levels(a->nrows());
  algorithms::bfs_level(*a, 0, levels);
  EXPECT_EQ(levels.nvals(), 64u);
}

TEST(QueryExecutor, TriangleCountMatchesSerial) {
  auto store = std::make_shared<service::GraphStore>();
  // Triangle counting wants symmetric, loop-free input.
  store->add("sym", gbtl_graph::remove_self_loops(gbtl_graph::symmetrize(
                        gbtl_graph::rmat(6, 4, /*seed=*/7))));
  service::QueryExecutor exec(store, small_options());
  service::QueryRequest req;
  req.kind = service::QueryKind::kTriangleCount;
  req.graph = "sym";
  const auto got = exec.submit(req).get();
  const auto want = service::QueryExecutor::execute_serial(*store, req);
  ASSERT_EQ(got.status, service::QueryStatus::kOk);
  EXPECT_EQ(got.scalar, want.scalar);
}

}  // namespace
