#pragma once

/// @file engine.hpp
/// The analytics workloads' view of one backend: build the workload's
/// matrices, run one algorithm call, and time single grb:: ops directly.
/// Engine is type-erased so each backend's template instantiation lives in
/// its own translation unit (engine_<backend>.cpp) and they compile in
/// parallel.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu_sim/stats.hpp"
#include "graphs.hpp"

namespace gpu_sim {
class Context;
class ThreadPool;
}  // namespace gpu_sim

namespace perfbench {

enum class JobKind { kBfs = 0, kSssp, kPageRank, kCc, kTc, kCount };
inline constexpr std::size_t kJobKinds =
    static_cast<std::size_t>(JobKind::kCount);
inline const char* to_string(JobKind k) {
  switch (k) {
    case JobKind::kBfs: return "bfs";
    case JobKind::kSssp: return "sssp";
    case JobKind::kPageRank: return "pagerank";
    case JobKind::kCc: return "cc";
    case JobKind::kTc: return "tc";
    case JobKind::kCount: break;
  }
  return "unknown";
}

struct Job {
  JobKind kind = JobKind::kBfs;
  Index root = 0;  ///< BFS / SSSP source
};

/// Host copy of a job's output, compared bit for bit against the oracle.
struct Payload {
  std::vector<Index> idx;
  std::vector<Index> ivals;
  std::vector<double> dvals;
  std::uint64_t scalar = 0;
  bool operator==(const Payload&) const = default;
};

struct JobResult {
  double wall_s = 0.0;        ///< the algorithm call, device drained
  std::uint64_t count = 0;    ///< BFS levels / SSSP & CC rounds / PR iterations
  Payload out;
  gpu_sim::DeviceStats dev;   ///< device counters over the call (GpuSim only)
};

/// Wall and simulated milliseconds of one direct grb:: op call.
struct OpTime {
  double wall_ms = 0.0;
  double sim_ms = 0.0;
};

class Engine {
 public:
  virtual ~Engine() = default;
  /// Build the workload's three matrices (and upload them, on GpuSim).
  virtual void build(const AnalyticsInputs& in) = 0;
  virtual JobResult run(const Job& job) = 0;
  /// Time each direct op on the workload graphs: vxm cold/warm, mxv, the
  /// diag mxm, the masked mxm, eWiseAdd, apply, reduce.
  virtual std::map<std::string, OpTime> ops(const AnalyticsInputs& in) = 0;
};

std::unique_ptr<Engine> make_sequential_engine();
std::unique_ptr<Engine> make_cpupar_engine(gpu_sim::ThreadPool& pool);
std::unique_ptr<Engine> make_gpusim_engine(gpu_sim::Context& ctx);

/// Jobs of analytics pass @p pass: 8 BFS and 2 SSSP from the pass's slice
/// of the root cycle, then PageRank, CC and TC.
std::vector<Job> pass_jobs(const AnalyticsInputs& in, std::size_t pass);

}  // namespace perfbench
