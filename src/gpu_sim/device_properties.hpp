#pragma once

/// @file device_properties.hpp
/// Analytic performance model of the simulated device.
///
/// The GBTL-CUDA paper evaluated on real NVIDIA hardware; this container has
/// none, so the GPU backend runs its kernels functionally on the host while a
/// calibrated cost model advances a *simulated device clock*. The model is a
/// roofline-style LogP hybrid: each kernel launch costs a fixed overhead plus
/// max(compute-bound time, memory-bound time); each host<->device transfer
/// costs a fixed latency plus bytes/bandwidth. The default parameters are
/// modeled on a Kepler-class Tesla K40 (the kind of card a 2016 GABB paper
/// used). Substituting real silicon with this model preserves the *shape* of
/// the paper's results: crossover points between the sequential CPU backend
/// and the GPU backend, and the relative benefit of staying device-resident.

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace gpu_sim {

/// Static properties + cost-model coefficients of the simulated device.
/// All rates are per second; all times are in seconds.
struct DeviceProperties {
  const char* name = "SimuTesla K40 (software model)";

  // --- Geometry (mirrors cudaDeviceProp) -------------------------------
  std::uint32_t multiprocessor_count = 15;
  std::uint32_t max_threads_per_block = 1024;
  std::uint32_t warp_size = 32;
  std::uint64_t max_grid_dim_x = 2147483647ull;  // 2^31 - 1 blocks
  std::size_t total_global_memory = 12ull << 30;  // 12 GiB

  // --- Cost model -------------------------------------------------------
  /// Fixed time to get any kernel onto the device (driver + queueing).
  double kernel_launch_overhead_s = 6.0e-6;
  /// Aggregate arithmetic throughput for the simple (non-FMA-dense) integer
  /// and floating point work graph kernels do. ~1/3 of peak K40 SP FLOPs.
  double compute_throughput_ops_per_s = 1.4e12;
  /// Achievable global-memory bandwidth (~80% of the 288 GB/s peak).
  double memory_bandwidth_bytes_per_s = 230.0e9;
  /// PCIe 3.0 x16 effective transfer bandwidth.
  double transfer_bandwidth_bytes_per_s = 8.0e9;
  /// Per-transfer fixed latency (driver + DMA setup).
  double transfer_latency_s = 10.0e-6;
  /// Device-to-device copies run at full memory bandwidth, read+write.
  double d2d_bandwidth_bytes_per_s = 115.0e9;
};

/// Work/traffic declaration accompanying a kernel launch. Backend kernels
/// declare how much useful work they do; the clock advances by the modeled
/// duration. (Real CUDA profiling would *measure* these; here the kernels
/// are instrumented by construction.)
struct LaunchStats {
  /// Number of scalar operations performed (additions, comparisons, ...).
  std::uint64_t ops = 0;
  /// Bytes read from simulated global memory.
  std::uint64_t bytes_read = 0;
  /// Bytes written to simulated global memory.
  std::uint64_t bytes_written = 0;

  friend LaunchStats operator+(LaunchStats a, const LaunchStats& b) {
    a.ops += b.ops;
    a.bytes_read += b.bytes_read;
    a.bytes_written += b.bytes_written;
    return a;
  }
};

/// Modeled execution time of one kernel launch under properties @p p.
inline double modeled_kernel_time(const DeviceProperties& p,
                                  const LaunchStats& s) {
  const double compute =
      static_cast<double>(s.ops) / p.compute_throughput_ops_per_s;
  const double memory =
      static_cast<double>(s.bytes_read + s.bytes_written) /
      p.memory_bandwidth_bytes_per_s;
  return p.kernel_launch_overhead_s + (compute > memory ? compute : memory);
}

/// Modeled time of a host<->device transfer of @p bytes.
inline double modeled_transfer_time(const DeviceProperties& p,
                                    std::size_t bytes) {
  return p.transfer_latency_s +
         static_cast<double>(bytes) / p.transfer_bandwidth_bytes_per_s;
}

/// Warp-granular padding model of a row-parallel (thread-per-row) kernel.
///
/// Under SIMT lockstep a warp of `warp_size` consecutive rows retires only
/// when its heaviest row finishes; the lighter lanes idle but keep occupying
/// issue slots and the memory pipeline, so the warp's effective item count is
/// warp_size * max(items in warp) — every row of the warp padded to its
/// widest row. Row-parallel kernels declare ops/traffic in these
/// effective slots; load-balanced (merge-path) kernels declare the flat item
/// count, which is their entire point. `items_of_row(i)` returns the work
/// items (e.g. nnz) of row i.
template <typename ItemsOfRowFn>
std::uint64_t warp_padded_items(std::size_t nrows, std::uint32_t warp_size,
                                ItemsOfRowFn&& items_of_row) {
  if (warp_size == 0) warp_size = 1;
  std::uint64_t total = 0;
  for (std::size_t base = 0; base < nrows; base += warp_size) {
    const std::size_t end = std::min<std::size_t>(base + warp_size, nrows);
    std::uint64_t warp_max = 0;
    for (std::size_t i = base; i < end; ++i)
      warp_max = std::max<std::uint64_t>(warp_max, items_of_row(i));
    // A tail warp still schedules warp_size lanes; idle lanes are masked.
    total += warp_max * warp_size;
  }
  return total;
}

/// Modeled time of a device-to-device copy of @p bytes.
inline double modeled_d2d_time(const DeviceProperties& p, std::size_t bytes) {
  return p.kernel_launch_overhead_s +
         static_cast<double>(bytes) / p.d2d_bandwidth_bytes_per_s;
}

}  // namespace gpu_sim
