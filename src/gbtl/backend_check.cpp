/// @file backend_check.cpp
/// Compile-time completeness of every backend's op table. Kept in this one
/// translation unit, so the probes are instantiated once per build rather
/// than in every file that includes the frontend; building the library
/// fails when a backend loses an op.

#include "gbtl/backend.hpp"

namespace grb {

static_assert(complete_backend<Sequential>,
              "Sequential backend is missing an op-table entry");
static_assert(complete_backend<CpuPar>,
              "CpuPar backend is missing an op-table entry");
static_assert(complete_backend<GpuSim>,
              "GpuSim backend is missing an op-table entry");
static_assert(complete_backend<GpuShard>,
              "GpuShard backend is missing an op-table entry");

}  // namespace grb
