// psfbench's four workloads. Each repetition builds a fresh world from the
// seed, runs set-up (world, service registration, warm-up binds), then the
// measured phase, and returns what the generator observed plus the layer
// counters probed at quiescence.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "generator.hpp"
#include "probes.hpp"
#include "trace.hpp"

namespace psf::bench {

// ds500_steady, inbox_read, access_storm, churn (README.md says why each
// exists).
std::vector<std::string> workload_names();

struct RepResult {
  Observations obs;
  // Per-layer readings: probes plus the generator-side sim.*/bench.* ones
  // and, on traced repetitions, the direct layer replays.
  Readings layers;
  double setup_wall_s = 0.0;
  double measured_wall_s = 0.0;
  // Correctness violations found at quiescence; empty when all checks hold.
  std::vector<std::string> violations;
};

// Runs one repetition of `workload` (one of workload_names()). With a
// tracer, spans are recorded and the planner and crypto layers are also
// timed directly through their public functions. With `setup_only`, the
// repetition stops when the measured phase would start; only setup_wall_s
// and set-up violations are meaningful then.
RepResult run_rep(const std::string& workload, std::uint64_t seed,
                  Tracer* tracer, bool setup_only = false);

}  // namespace psf::bench
