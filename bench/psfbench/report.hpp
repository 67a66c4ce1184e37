// The metric catalog and psfbench's three outputs: the human-readable table,
// the results file (schema: {bench, config, metrics: [{layer, name, unit,
// kind, value | p50/iqr, n}]}), and the one-line JSON result the benchmark
// contract asks for as the last line of stdout.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hpp"

namespace psf::bench {

// kind: "work" (deterministic count), "sim" (simulated time), "wall" (host
// time) or "host" (process resources). work and sim metrics must replay
// bit-identically across repetitions.
struct MetricDef {
  const char* name;
  const char* layer;  // "e2e" or the module the metric belongs to
  const char* unit;
  const char* kind;
  // Listed in BENCHMARK.json: every workload reports it, so it can appear
  // on the result line. The lists here and there must agree.
  bool listed;
};

const std::vector<MetricDef>& catalog();
bool deterministic(const MetricDef& def);

// A reported metric: `value` is the single value (work/sim/host) or the
// median over repetitions (wall), with `iqr` across those repetitions.
struct Result {
  const MetricDef* def = nullptr;
  double value = 0.0;
  double iqr = 0.0;
  std::uint64_t n = 0;  // sample count (percentiles) or repetitions (wall)
};

struct RunSummary {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::size_t reps = 0;
  std::vector<Result> results;  // catalog order
  bool correct = true;
  std::vector<std::string> violations;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::string render_table(const RunSummary& summary);
bool write_results(const RunSummary& summary, const std::string& path);
// End-to-end metrics untraced, per-layer metrics traced; listed ones only.
std::string result_line(const RunSummary& summary);

}  // namespace psf::bench
