#include "backend_cpupar/pool.hpp"
#include "engine_impl.hpp"

namespace perfbench {

std::unique_ptr<Engine> make_cpupar_engine(gpu_sim::ThreadPool& pool) {
  return std::make_unique<EngineT<grb::CpuPar, grb::cpupar_backend::ScopedPool,
                                  gpu_sim::ThreadPool>>(pool);
}

}  // namespace perfbench
