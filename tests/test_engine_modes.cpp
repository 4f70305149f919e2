/// Unit tests for sparse/engine_modes.hpp: the env parser and its docs
/// table, per-thread modes, and guards whose scope covers ops recorded for
/// lazy fusion.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/bfs.hpp"
#include "gbtl/gbtl.hpp"
#include "gpu_sim/context.hpp"
#include "graph/generators.hpp"
#include "graph/graph_matrix.hpp"
#include "sparse/engine_modes.hpp"

namespace {

using grb::IndexArrayType;
using grb::IndexType;
using sparse::BitMode;
using sparse::BitModeGuard;
using sparse::DirectionMode;
using sparse::DirectionModeGuard;
using sparse::EngineModes;

TEST(EngineModes, EnvParserReadsEachVariable) {
  // Seed the process default before touching the environment, and put the
  // environment back afterwards.
  (void)sparse::engine_modes();
  std::vector<std::pair<const char*, std::string>> saved;
  for (const sparse::EngineEnvVar& var : sparse::kEngineEnvVars) {
    if (const char* value = std::getenv(var.name))
      saved.emplace_back(var.name, value);
    unsetenv(var.name);
  }
  const EngineModes defaults = sparse::engine_modes_from_env();
  EXPECT_EQ(defaults.bit, BitMode::Auto);
  EXPECT_EQ(defaults.shards, 0u);
  EXPECT_EQ(defaults.spgemm, sparse::SpgemmMode::Auto);

  setenv("GBTL_BIT_MODE", "force", 1);
  setenv("GBTL_FUSION_MODE", "fuse", 1);
  setenv("GBTL_SHARDS", "4", 1);
  setenv("GBTL_SPGEMM_MODE", "hash", 1);
  const EngineModes pinned = sparse::engine_modes_from_env();
  EXPECT_EQ(pinned.bit, BitMode::Force);
  EXPECT_EQ(pinned.fusion, sparse::FusionMode::Fuse);
  EXPECT_EQ(pinned.shards, 4u);
  EXPECT_EQ(pinned.spgemm, sparse::SpgemmMode::Hash);

  setenv("GBTL_SHARDS", "-2", 1);
  setenv("GBTL_SPGEMM_MODE", "nonsense", 1);
  const EngineModes junk = sparse::engine_modes_from_env();
  EXPECT_EQ(junk.shards, 0u);
  EXPECT_EQ(junk.spgemm, sparse::SpgemmMode::Auto);
  for (const sparse::EngineEnvVar& var : sparse::kEngineEnvVars)
    unsetenv(var.name);
  for (const auto& [name, value] : saved) setenv(name, value.c_str(), 1);
}

// docs/env_vars.md's "Engine modes" table must name exactly the variables
// the parser reads — no undocumented knob, no documented one that is dead.
TEST(EngineModes, EnvTableMatchesDocs) {
  std::ifstream doc(std::string(GBTL_SOURCE_DIR) + "/docs/env_vars.md");
  ASSERT_TRUE(doc) << "docs/env_vars.md not found";
  std::vector<std::string> documented;
  bool in_section = false;
  for (std::string line; std::getline(doc, line);) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Engine modes";
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    const std::size_t end = line.find('`', 3);
    ASSERT_NE(end, std::string::npos) << line;
    documented.push_back(line.substr(3, end - 3));
  }
  std::vector<std::string> parsed;
  for (const sparse::EngineEnvVar& var : sparse::kEngineEnvVars)
    parsed.emplace_back(var.name);
  std::sort(documented.begin(), documented.end());
  std::sort(parsed.begin(), parsed.end());
  EXPECT_EQ(documented, parsed);
}

TEST(EngineModes, GuardIsInvisibleToOtherThreads) {
  const EngineModes before = sparse::engine_modes();
  BitModeGuard bit(BitMode::Force);
  DirectionModeGuard direction(DirectionMode::ForcePull);
  sparse::ShardCountGuard shards(before.shards + 3);
  EngineModes seen;
  std::thread reader([&] {
    seen = sparse::engine_modes();
    // A pin on this thread does not leak back to the main thread either.
    BitModeGuard off(BitMode::Off);
  });
  reader.join();
  EXPECT_EQ(seen.bit, before.bit);
  EXPECT_EQ(seen.direction, before.direction);
  EXPECT_EQ(seen.shards, before.shards);
  EXPECT_EQ(sparse::engine_modes().bit, BitMode::Force);
  EXPECT_EQ(sparse::engine_modes().direction, DirectionMode::ForcePull);
}

// A vxm recorded for lazy fusion inside the scope and first observed after
// it must still have run under the pinned direction.
TEST(EngineModes, GuardScopeCoversRecordedOps) {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  sparse::FusionGuard fuse(sparse::FusionMode::Fuse);
  BitModeGuard csr(BitMode::Off);
  constexpr IndexType n = 64;
  IndexArrayType r, c;
  std::vector<double> v;
  for (IndexType i = 0; i < n; ++i) {
    r.push_back(i);
    c.push_back((i + 1) % n);
    v.push_back(1.0);
  }
  grb::Matrix<double, grb::GpuSim> a(n, n);
  a.build(r, c, v);
  grb::Vector<double, grb::GpuSim> u(n), w(n);
  u.setElement(0, 1.0);

  const auto before = ctx.stats();
  {
    DirectionModeGuard pull(DirectionMode::ForcePull);
    grb::vxm(w, grb::NoMask{}, grb::NoAccumulate{},
             grb::LogicalSemiring<double>{}, u, a, grb::Replace);
  }
  const auto delta = ctx.stats() - before;
  const auto selected = [&](gpu_sim::TraversalDirection d) {
    return delta.direction_selections[static_cast<std::size_t>(d)];
  };
  EXPECT_EQ(selected(gpu_sim::TraversalDirection::kPull), 1u);
  EXPECT_EQ(selected(gpu_sim::TraversalDirection::kPush), 0u);
  EXPECT_EQ(w.nvals(), 1u);
}

struct BfsRun {
  IndexArrayType reached;
  std::vector<IndexType> levels;
  double simulated_s = 0.0;
  std::uint64_t launches = 0;
};

/// BFS on a fresh 1-worker context bound to the calling thread.
BfsRun gpusim_bfs() {
  gpu_sim::Context ctx{gpu_sim::DeviceProperties{}, 1};
  gpu_sim::ScopedDevice bind(ctx);
  const auto g = gbtl_graph::rmat(10, 8, 20160501);
  auto a = gbtl_graph::to_matrix<double, grb::GpuSim>(g);
  grb::Vector<IndexType, grb::GpuSim> levels(a.nrows());
  algorithms::bfs_level(a, 0, levels);
  BfsRun run;
  levels.extractTuples(run.reached, run.levels);
  run.simulated_s = ctx.simulated_time_s();
  run.launches = ctx.stats().kernel_launches;
  return run;
}

// One thread toggles mode guards in a loop while another runs BFS on its
// own context: the toggles must not reach the BFS thread. Under TSan this
// is the data-race check on the mode state (scripts/ci.sh).
TEST(EngineModes, TogglingGuardsOnAnotherThreadLeavesBfsUnchanged) {
  BfsRun reference;
  std::thread([&] { reference = gpusim_bfs(); }).join();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> toggles{0};
  std::thread toggler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      BitModeGuard bit(BitMode::Force);
      DirectionModeGuard direction(DirectionMode::ForcePull);
      toggles.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (toggles.load(std::memory_order_relaxed) == 0)
    std::this_thread::yield();
  BfsRun raced;
  std::thread([&] { raced = gpusim_bfs(); }).join();
  done = true;
  toggler.join();

  EXPECT_GT(toggles.load(), 0u);
  EXPECT_EQ(raced.reached, reference.reached);
  EXPECT_EQ(raced.levels, reference.levels);
  EXPECT_EQ(raced.simulated_s, reference.simulated_s);
  EXPECT_EQ(raced.launches, reference.launches);
}

}  // namespace
