// detlint's check battery: token-level determinism and concurrency-
// discipline rules over a CxxScan, one function per DET catalog family.
//
// The checks mirror the repo's actual reproducibility contract (seeded
// chaos replay, adaptation replay, hierarchical planner reduction are all
// gated on bit-identical outputs):
//
//   DET001..DET004  nondeterminism sources — entropy, hidden RNG state,
//                   wall-clock reads on simulated paths;
//   DET010..DET012  order hazards — unordered-container iteration in
//                   files tagged `ordered-output`, pointer-keyed ordered
//                   containers, std::hash over pointers;
//   DET020..DET023  concurrency hygiene — unguarded mutable statics,
//                   detached threads, manual lock()/unlock(), nested
//                   lock acquisition without a documented order.
//
// Directive handling (allow/allow-file suppressions, DET030/DET031) lives
// one layer up in detlint.cpp; the checks only produce raw findings.
#pragma once

#include <string_view>

#include "analysis/detlint/cxx_lexer.hpp"
#include "analysis/diagnostics.hpp"

namespace psf::analysis::det {

struct CheckContext {
  std::string_view path;  // as given to the CLI; drives path exemptions
  const CxxScan* scan = nullptr;
  // Set by the `ordered-output` file pragma: this file's iteration order
  // reaches a trace, plan, or merge, so unordered iteration is an error.
  bool ordered_output = false;
  // True for the sanctioned entropy/clock wrappers (src/util/rng): the
  // one place allowed to touch real randomness sources.
  bool clock_exempt = false;
};

// True when `path` is exempt from the clock/entropy checks (DET001..004).
bool clock_exempt_path(std::string_view path);

// Runs every check; findings come back unsorted (the driver sorts after
// merging directive diagnostics).
DiagnosticList run_det_checks(const CheckContext& ctx);

}  // namespace psf::analysis::det
