#include "engine_impl.hpp"

namespace perfbench {

std::unique_ptr<Engine> make_gpusim_engine(gpu_sim::Context& ctx) {
  return std::make_unique<
      EngineT<grb::GpuSim, gpu_sim::ScopedDevice, gpu_sim::Context>>(ctx);
}

}  // namespace perfbench
