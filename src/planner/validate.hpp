// Independent re-validation of a DeploymentPlan against the specification,
// environment, and request — a second implementation of the §3.3 constraint
// checks, deliberately structured differently from the search (checks a
// finished plan bottom-up instead of pruning candidates top-down).
//
// Uses:
//  - property-based tests: any plan the search emits, on any random
//    topology, must pass validation;
//  - operators: audit a plan before handing it to the deployment engine;
//  - the adaptation loop: after a network change, re-validate the *current*
//    deployment to decide whether redeployment is called for at all.
#pragma once

#include <string>
#include <vector>

#include "planner/environment.hpp"
#include "planner/plan.hpp"
#include "planner/planner.hpp"
#include "spec/model.hpp"
#include "util/status.hpp"

namespace psf::planner {

struct Violation {
  enum class Kind {
    kStructure,       // malformed plan (bad indices, missing wires)
    kCondition,       // §3.3 condition 1: installation conditions
    kCompatibility,   // §3.3 condition 2: interface property compatibility
    kCapacity,        // §3.3 condition 3: node / link / component capacity
    kPolicy,          // framework rules (entry pinning, static placement,
                      // duplicate view configurations)
    kUnroutable,      // no live route from a wire's server to its client,
                      // or from the entry to the requesting client
  };

  Kind kind = Kind::kStructure;
  InstanceId instance = 0;  // primary offender (plan-local id)
  std::string detail;

  std::string to_string() const;
};

struct ValidationReport {
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

// Validates `plan` as the answer to `request`. `existing` must be the same
// instance set the planner saw (reused placements are resolved against it).
ValidationReport validate_plan(const spec::ServiceSpec& spec,
                               const EnvironmentView& env,
                               const PlanRequest& request,
                               const DeploymentPlan& plan,
                               const std::vector<ExistingInstance>& existing = {});

}  // namespace psf::planner
