#include "engine_impl.hpp"

namespace perfbench {

namespace {
struct NoBind {
  explicit NoBind(int&) {}
};
int no_resource = 0;
}  // namespace

std::unique_ptr<Engine> make_sequential_engine() {
  return std::make_unique<EngineT<grb::Sequential, NoBind, int>>(no_resource);
}

std::vector<Job> pass_jobs(const AnalyticsInputs& in, std::size_t pass) {
  const std::size_t slice = pass % kRootCycle;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < kBfsPerPass; ++i)
    jobs.push_back({JobKind::kBfs, in.bfs_roots[slice * kBfsPerPass + i]});
  for (std::size_t i = 0; i < kSsspPerPass; ++i)
    jobs.push_back({JobKind::kSssp, in.sssp_roots[slice * kSsspPerPass + i]});
  jobs.push_back({JobKind::kPageRank, 0});
  jobs.push_back({JobKind::kCc, 0});
  jobs.push_back({JobKind::kTc, 0});
  return jobs;
}

}  // namespace perfbench
