#pragma once

/// @file engine_modes.hpp
/// The backend's "how" choices in one value. The GraphBLAS frontend fixes
/// what an op computes; EngineModes fixes how the GpuSim backend runs it:
/// the SpMV kernel, push/pull, the SpGEMM strategy, lazy fusion, the bit
/// format, the shard count, and two cost-model tuning values.
///
/// Each thread reads its own copy (engine_modes()), seeded from a process
/// default that the environment sets once (kEngineEnvVars). A ModeGuard
/// pins one field for the calling thread only, and drains the thread's
/// op-DAG on entry and exit, so every op recorded inside the scope also
/// executes inside it. docs/env_vars.md documents the variables.

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <type_traits>
#include <utility>

#include "gpu_sim/context.hpp"
#include "sparse/formats.hpp"

namespace sparse {

/// CSR SpMV schedule: Adaptive lets the heuristic decide; the Force* modes
/// pin every selection to one schedule (differential tests sweep these to
/// prove both kernel paths agree bit-for-bit).
enum class SpmvMode {
  Adaptive,
  ForceCsrScalar,
  ForceCsrLoadBalanced,
};

/// Traversal direction: Auto lets the Beamer-style heuristic decide; the
/// Force* modes pin every traversal to one direction.
enum class DirectionMode {
  Auto,
  ForcePush,
  ForcePull,
};

/// SpGEMM strategy: Auto lets the heuristic decide; Esc/Hash pin every mxm
/// to one strategy.
enum class SpgemmMode {
  Auto,
  Esc,
  Hash,
};

/// Off replays every op eagerly at record time; Fuse fuses every legal
/// chain; Auto fuses only launch-bound (small) operands.
enum class FusionMode {
  Off,
  Fuse,
  Auto,
};

enum class BitMode {
  Auto,   ///< propose on boolean-saturating semirings, ratify by cost
  Force,  ///< take the Bit path wherever it is exact (tests / benches)
  Off     ///< never leave CSR
};

struct EngineModes {
  SpmvMode spmv = SpmvMode::Adaptive;
  DirectionMode direction = DirectionMode::Auto;
  SpgemmMode spgemm = SpgemmMode::Auto;
  FusionMode fusion = FusionMode::Auto;
  BitMode bit = BitMode::Auto;
  /// Row-block fan-out; 0 lets the memory-budget heuristic decide.
  std::size_t shards = 0;
  /// Nonzeros per team of the merge-path SpMV kernel.
  Index lb_chunk = 256;
  /// Hash-SpGEMM tables are sized to entries / slots <= this load factor.
  double hash_load_target = 0.5;
};

// ---------------------------------------------------------------------------
// Environment: seeds the process default once
// ---------------------------------------------------------------------------

namespace engine_modes_detail {

/// Set @p field to the choice named @p value; an unknown name leaves it.
template <typename E>
void parse_choice(E& field, const char* value,
                  std::initializer_list<std::pair<const char*, E>> choices) {
  for (const auto& [name, mode] : choices)
    if (std::strcmp(value, name) == 0) field = mode;
}

}  // namespace engine_modes_detail

struct EngineEnvVar {
  const char* name;
  void (*apply)(EngineModes&, const char* value);
};

/// The variables that seed the process default. docs/env_vars.md must list
/// the same names (ctest EngineModes.EnvTableMatchesDocs).
inline constexpr EngineEnvVar kEngineEnvVars[] = {
    {"GBTL_BIT_MODE",
     [](EngineModes& m, const char* v) {
       engine_modes_detail::parse_choice(m.bit, v,
                                         {{"auto", BitMode::Auto},
                                          {"force", BitMode::Force},
                                          {"off", BitMode::Off}});
     }},
    {"GBTL_FUSION_MODE",
     [](EngineModes& m, const char* v) {
       engine_modes_detail::parse_choice(m.fusion, v,
                                         {{"off", FusionMode::Off},
                                          {"fuse", FusionMode::Fuse},
                                          {"auto", FusionMode::Auto}});
     }},
    {"GBTL_SHARDS",
     [](EngineModes& m, const char* v) {
       const long n = std::strtol(v, nullptr, 10);
       if (n > 0) m.shards = static_cast<std::size_t>(n);
     }},
    {"GBTL_SPGEMM_MODE",
     [](EngineModes& m, const char* v) {
       engine_modes_detail::parse_choice(m.spgemm, v,
                                         {{"auto", SpgemmMode::Auto},
                                          {"esc", SpgemmMode::Esc},
                                          {"hash", SpgemmMode::Hash}});
     }},
};

/// Defaults overridden by whichever kEngineEnvVars are set right now.
inline EngineModes engine_modes_from_env() {
  EngineModes m;
  for (const EngineEnvVar& var : kEngineEnvVars)
    if (const char* value = std::getenv(var.name)) var.apply(m, value);
  return m;
}

// ---------------------------------------------------------------------------
// Per-thread modes + the one guard
// ---------------------------------------------------------------------------

namespace engine_modes_detail {

inline EngineModes& thread_modes() {
  static const EngineModes process_default = engine_modes_from_env();
  thread_local EngineModes modes = process_default;
  return modes;
}

}  // namespace engine_modes_detail

/// The calling thread's modes. Read them on the thread that issues the op,
/// before any launch: kernel bodies may run on a context's pool threads.
inline const EngineModes& engine_modes() {
  return engine_modes_detail::thread_modes();
}

/// Pin one field of the calling thread's modes for a scope, e.g.
/// `ModeGuard<&EngineModes::bit> g(BitMode::Force);`. Drains the thread's
/// pending fused ops on entry and on exit, so ops recorded under one value
/// never execute under another. Guards nest; other threads are unaffected.
template <auto Field>
class ModeGuard {
 public:
  using value_type =
      std::remove_cvref_t<decltype(std::declval<EngineModes&>().*Field)>;

  explicit ModeGuard(value_type value) : saved_(engine_modes().*Field) {
    gpu_sim::Context::run_drain_hook();
    engine_modes_detail::thread_modes().*Field = value;
  }
  ~ModeGuard() {
    gpu_sim::Context::run_drain_hook();
    engine_modes_detail::thread_modes().*Field = saved_;
  }
  ModeGuard(const ModeGuard&) = delete;
  ModeGuard& operator=(const ModeGuard&) = delete;

 private:
  value_type saved_;
};

using SpmvModeGuard = ModeGuard<&EngineModes::spmv>;
using DirectionModeGuard = ModeGuard<&EngineModes::direction>;
using SpgemmModeGuard = ModeGuard<&EngineModes::spgemm>;
using FusionGuard = ModeGuard<&EngineModes::fusion>;
using BitModeGuard = ModeGuard<&EngineModes::bit>;
using ShardCountGuard = ModeGuard<&EngineModes::shards>;

}  // namespace sparse
