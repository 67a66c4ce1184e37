#include "runtime/deployment.hpp"

#include <memory>

#include "util/logging.hpp"

namespace psf::runtime {

namespace {

struct DeployState {
  SmockRuntime* runtime;
  const planner::DeploymentPlan plan;  // copy: caller's plan may not outlive us
  net::NodeId code_origin;
  std::function<void(util::Expected<DeployedPlan>)> done;
  sim::Time started_at;

  std::vector<RuntimeInstanceId> instances;
  std::size_t pending_installs = 0;
  bool failed = false;
  util::Status failure;

  // A failed deploy takes back every instance it installed itself (never a
  // reused one): nothing else would ever start, pool or uninstall them.
  void fail(const util::Status& status) {
    for (std::size_t i = 0; i < plan.placements.size(); ++i) {
      if (!plan.placements[i].reuse_existing && instances[i] != 0) {
        (void)runtime->uninstall(instances[i]);
      }
    }
    done(status);
  }

  void finish_if_ready() {
    if (pending_installs != 0) return;
    if (failed) {
      fail(failure);
      return;
    }

    // Wire every planned linkage.
    for (const planner::Wire& wire : plan.wires) {
      auto st = runtime->wire(instances[wire.client], wire.interface_name,
                              instances[wire.server]);
      if (!st) {
        fail(st);
        return;
      }
    }

    // Copy plan-derived metadata onto new instances, then start them
    // servers-first (higher placement ids are deeper in the tree only by
    // construction order, so walk wires to find a safe order: a simple
    // reverse-placement-order start is sufficient because the planner
    // creates parents before children).
    for (std::size_t i = 0; i < plan.placements.size(); ++i) {
      const planner::Placement& p = plan.placements[i];
      Instance& inst = runtime->instance(instances[i]);
      inst.reserved_load_rps += p.inbound_rate_rps;
      if (p.reuse_existing) continue;
      inst.effective = p.effective;
      inst.downstream_latency_s = p.expected_latency_s;
    }
    for (std::size_t i = plan.placements.size(); i-- > 0;) {
      const planner::Placement& p = plan.placements[i];
      if (p.reuse_existing) continue;
      auto st = runtime->start(instances[i]);
      if (!st) {
        fail(st);
        return;
      }
    }

    DeployedPlan result;
    result.instances = instances;
    result.entry = instances[plan.entry];
    result.elapsed = runtime->simulator().now() - started_at;
    done(result);
  }
};

}  // namespace

void DeploymentEngine::deploy(
    const planner::DeploymentPlan& plan, net::NodeId code_origin,
    std::function<void(util::Expected<DeployedPlan>)> done) {
  auto state = std::make_shared<DeployState>(
      DeployState{&runtime_, plan, code_origin, std::move(done),
                  runtime_.simulator().now(),
                  std::vector<RuntimeInstanceId>(plan.placements.size(), 0),
                  0, false, util::Status::ok()});

  // Count installs first so completions cannot race past a partial count,
  // and validate every reuse up front: a vanished reuse is the root-cause
  // failure and must not be masked by an install that dies in transit.
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const planner::Placement& p = plan.placements[i];
    if (!p.reuse_existing) {
      ++state->pending_installs;
    } else if (!runtime_.exists(p.existing_runtime_id)) {
      if (!state->failed) {
        state->failed = true;
        state->failure = util::not_found(
            "plan reuses instance " + std::to_string(p.existing_runtime_id) +
            " which no longer exists");
      }
    } else {
      state->instances[i] = p.existing_runtime_id;
    }
  }

  bool any_new = state->pending_installs != 0;
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const planner::Placement& p = plan.placements[i];
    if (p.reuse_existing) continue;
    runtime_.install(
        *p.component, p.node, p.factors, code_origin,
        [state, i](util::Expected<RuntimeInstanceId> id) {
          --state->pending_installs;
          if (!id) {
            // First failure wins: later transport drops must not mask the
            // root cause (e.g. a vanished-reuse rejection).
            if (!state->failed) {
              state->failed = true;
              state->failure = id.status();
            }
          } else {
            state->instances[i] = *id;
          }
          state->finish_if_ready();
        });
  }
  if (!any_new) state->finish_if_ready();
}

}  // namespace psf::runtime
