#include "runtime/adaptation.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <utility>

#include "util/logging.hpp"

namespace psf::runtime {

namespace {

// A wire is degraded when the current latency summed over its planned links
// exceeds this multiple of the plan-assumed route latency...
constexpr double kLatencySlack = 1.5;
// ...or the current bottleneck bandwidth over its planned links falls below
// this fraction of the plan-assumed bottleneck.
constexpr double kBandwidthFloor = 0.5;

}  // namespace

const char* adaptation_outcome_name(AdaptationEvent::Outcome outcome) {
  switch (outcome) {
    case AdaptationEvent::Outcome::kStillValid: return "still-valid";
    case AdaptationEvent::Outcome::kRepaired: return "repaired";
    case AdaptationEvent::Outcome::kUnsatisfiable: return "unsatisfiable";
    case AdaptationEvent::Outcome::kFailed: return "failed";
  }
  return "?";
}

AdaptationController::AdaptationController(SmockRuntime& runtime,
                                           GenericServer& server,
                                           NetworkMonitor& monitor,
                                           std::string service,
                                           AdaptationParams params)
    : runtime_(runtime),
      server_(server),
      service_(std::move(service)),
      params_(params) {
  PSF_CHECK_MSG(server_.service_spec(service_) != nullptr,
                "service not registered");
  monitor.subscribe([this](const NetworkMonitor::ChangeEvent&) {
    ++stats_.events_observed;
    // Fresh properties first, then decide what still holds. (The server's
    // own monitor subscription already bumped the epoch, so no cached plan
    // survives regardless of what the check decides.)
    auto st = server_.refresh_environment(service_);
    if (!st.is_ok()) {
      PSF_WARN() << "adaptation: environment refresh failed: "
                 << st.to_string();
      return;
    }
    check_now();
  });
}

std::size_t AdaptationController::track(AccessOutcome outcome,
                                        planner::PlanRequest request) {
  PSF_CHECK_MSG(outcome.instances.size() == outcome.plan.placements.size(),
                "AccessOutcome missing per-placement instances");
  backing_.push_back(outcome.instances);
  repairing_.push_back(0);
  tracked_.push_back(Tracked{std::move(outcome), std::move(request)});
  return tracked_.size() - 1;
}

void AdaptationController::check_now() {
  if (checking_) return;
  checking_ = true;
  ++stats_.checks;
  for (std::size_t i = 0; i < tracked_.size(); ++i) maybe_repair(i);
  checking_ = false;
}

std::vector<planner::RepairViolation> AdaptationController::classify(
    std::size_t index, bool* broken_backing) const {
  const Tracked& tracked = tracked_[index];
  const planner::DeploymentPlan& plan = tracked.outcome.plan;
  net::Network& network = runtime_.network();
  std::vector<planner::RepairViolation> out;

  const auto add = [&out](planner::RepairViolation::Kind kind,
                          net::NodeId node, net::LinkId link,
                          std::string detail) {
    for (const planner::RepairViolation& v : out) {
      if (v.kind == kind && v.node == node && v.link == link) return;
    }
    planner::RepairViolation v;
    v.kind = kind;
    v.node = node;
    v.link = link;
    v.detail = std::move(detail);
    out.push_back(std::move(v));
  };

  // Node-level: a placement's host died, or is under a maintenance drain.
  *broken_backing = false;
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const net::NodeId node = plan.placements[i].node;
    if (!network.node_up(node)) {
      add(planner::RepairViolation::Kind::kNodeDeath, node, net::LinkId{},
          "node down");
    } else if (drained_.count(node.value) != 0) {
      add(planner::RepairViolation::Kind::kNodeDeath, node, net::LinkId{},
          "maintenance drain");
    }
    if (!runtime_.exists(backing_[index][i])) *broken_backing = true;
  }

  // Link-level: a wire's planned route is severed, slower than the plan
  // assumed (x kLatencySlack), or lost most of its assumed bandwidth.
  for (const planner::Wire& w : plan.wires) {
    if (w.route.links.empty()) continue;  // co-located, nothing to degrade
    bool severed = false;
    net::LinkId blame;
    std::int64_t current_ns = 0;
    net::LinkId slowest;
    std::int64_t slowest_ns = -1;
    net::LinkId narrowest;
    double narrowest_bps = std::numeric_limits<double>::infinity();
    for (net::LinkId l : w.route.links) {
      const net::Link& link = network.link(l);
      if (!link.up || !network.node_up(link.a) || !network.node_up(link.b)) {
        severed = true;
        blame = l;
        break;
      }
      current_ns += link.latency.nanos();
      if (link.latency.nanos() > slowest_ns) {
        slowest_ns = link.latency.nanos();
        slowest = l;
      }
      if (link.bandwidth_bps < narrowest_bps) {
        narrowest_bps = link.bandwidth_bps;
        narrowest = l;
      }
    }
    if (severed) {
      add(planner::RepairViolation::Kind::kLinkDegradation, net::NodeId{},
          blame, "planned route severed");
      continue;
    }
    const double planned_ns = static_cast<double>(w.route.total_latency.nanos());
    if (static_cast<double>(current_ns) > kLatencySlack * planned_ns) {
      add(planner::RepairViolation::Kind::kLinkDegradation, net::NodeId{},
          slowest, "route latency past plan-assumed budget");
    }
    if (narrowest_bps <
        kBandwidthFloor * w.route.bottleneck_bandwidth_bps) {
      add(planner::RepairViolation::Kind::kLinkDegradation, net::NodeId{},
          narrowest, "route bandwidth below plan-assumed floor");
    }
  }

  // Property drift and capacity: the independent validator against the
  // refreshed environment (a drifted credential fails condition/
  // compatibility checks; a capacity squeeze fails condition 3).
  const spec::ServiceSpec* spec = server_.service_spec(service_);
  const planner::EnvironmentView* env = server_.environment(service_);
  PSF_CHECK(spec != nullptr && env != nullptr);
  const planner::ValidationReport report = planner::validate_plan(
      *spec, *env, tracked.request, plan,
      server_.existing_instances(service_));
  for (const planner::Violation& v : report.violations) {
    // A wire with no route left has a severed planned route or a dead host,
    // which the passes above report; as property drift it would exclude a
    // healthy node from the repair.
    if (v.kind == planner::Violation::Kind::kUnroutable) continue;
    net::NodeId node;
    for (const planner::Placement& p : plan.placements) {
      if (p.id == v.instance) {
        node = p.node;
        break;
      }
    }
    if (!node.valid()) continue;
    const auto kind = v.kind == planner::Violation::Kind::kCapacity
                          ? planner::RepairViolation::Kind::kLoadOverCapacity
                          : planner::RepairViolation::Kind::kPropertyDrift;
    add(kind, node, net::LinkId{}, v.detail);
  }
  return out;
}

void AdaptationController::maybe_repair(std::size_t index) {
  if (repairing_[index] != 0) return;  // one repair per deployment at a time
  bool broken_backing = false;
  std::vector<planner::RepairViolation> violations =
      classify(index, &broken_backing);
  if (violations.empty() && !broken_backing) {
    push_event(AdaptationEvent{runtime_.simulator().now(), index,
                               AdaptationEvent::Outcome::kStillValid, false,
                               0, ""});
    return;
  }

  std::string detail;
  for (const planner::RepairViolation& v : violations) {
    if (!detail.empty()) detail += ", ";
    detail += repair_violation_kind_name(v.kind);
    if (v.node.valid()) {
      detail += "@" + runtime_.network().node(v.node).name;
    }
  }
  if (broken_backing) {
    if (!detail.empty()) detail += ", ";
    detail += "backing instance gone";
  }
  PSF_INFO() << "adaptation: deployment " << index
             << " in violation: " << detail;

  // Every drained node joins the violation list even when it hosts nothing
  // of this plan: the repair search must not move anything ONTO a node
  // under maintenance.
  for (std::uint32_t d : drained_) {
    const net::NodeId node{d};
    const bool present = std::any_of(
        violations.begin(), violations.end(),
        [&](const planner::RepairViolation& v) {
          return v.kind == planner::RepairViolation::Kind::kNodeDeath &&
                 v.node == node;
        });
    if (!present) {
      planner::RepairViolation v;
      v.kind = planner::RepairViolation::Kind::kNodeDeath;
      v.node = node;
      v.detail = "maintenance drain";
      violations.push_back(std::move(v));
    }
  }

  ++stats_.repairs_triggered;
  repairing_[index] = 1;
  auto repair_outcome = std::make_shared<planner::RepairOutcome>();
  server_.request_repair(
      service_, tracked_[index].request, tracked_[index].outcome.plan,
      violations,
      [this, index, repair_outcome,
       detail](util::Expected<AccessOutcome> fresh) {
        AdaptationEvent event;
        event.at = runtime_.simulator().now();
        event.tracked_index = index;
        event.fell_back_to_full = repair_outcome->fell_back_to_full;
        event.detail = detail;
        if (!fresh.has_value()) {
          const bool unsat =
              fresh.status().code() == util::ErrorCode::kUnsatisfiable;
          event.outcome = unsat ? AdaptationEvent::Outcome::kUnsatisfiable
                                : AdaptationEvent::Outcome::kFailed;
          event.detail += "; repair: " + fresh.status().to_string();
          if (unsat) {
            ++stats_.unsatisfiable;
          } else {
            ++stats_.failed;
          }
          repairing_[index] = 0;
          push_event(std::move(event));
          return;
        }
        cutover(index, std::move(fresh).value(), std::move(event));
      },
      repair_outcome.get());
}

void AdaptationController::cutover(std::size_t index, AccessOutcome fresh,
                                   AdaptationEvent event) {
  // Sync-then-cutover: move state from each replaced live instance into its
  // replacement BEFORE any wire is swung, so the new chain is warm the
  // moment traffic lands on it. Pairing is by component, old plan order; a
  // replaced instance that no longer exists (crash) simply has no state to
  // move — that is the lease-recovery path, not a migration.
  const Tracked& tracked = tracked_[index];
  std::vector<std::pair<RuntimeInstanceId, RuntimeInstanceId>> pairs;
  std::vector<char> claimed(fresh.plan.placements.size(), 0);
  for (std::size_t i = 0; i < tracked.outcome.plan.placements.size(); ++i) {
    const planner::Placement& op = tracked.outcome.plan.placements[i];
    if (op.id == tracked.outcome.plan.entry) continue;
    const RuntimeInstanceId old_id = tracked.outcome.instances[i];
    if (!runtime_.exists(old_id)) continue;
    if (std::find(fresh.instances.begin(), fresh.instances.end(), old_id) !=
        fresh.instances.end()) {
      continue;  // survives into the new plan — nothing to move
    }
    for (std::size_t j = 0; j < fresh.plan.placements.size(); ++j) {
      const planner::Placement& np = fresh.plan.placements[j];
      if (claimed[j] != 0 || np.id == fresh.plan.entry || np.reuse_existing) {
        continue;
      }
      if (np.component->name != op.component->name) continue;
      claimed[j] = 1;
      pairs.emplace_back(old_id, fresh.instances[j]);
      break;
    }
  }
  if (pairs.empty()) {
    finish_cutover(index, std::move(fresh), std::move(event));
    return;
  }
  struct TransferBatch {
    std::size_t remaining;
    AccessOutcome fresh;
    AdaptationEvent event;
  };
  auto batch = std::make_shared<TransferBatch>(
      TransferBatch{pairs.size(), std::move(fresh), std::move(event)});
  for (const auto& [old_id, new_id] : pairs) {
    runtime_.transfer_state(
        old_id, new_id, [this, index, old_id, batch](util::Status st) {
          if (st.is_ok()) {
            ++stats_.state_transfers;
            ++batch->event.state_transfers;
          } else {
            // Cold replacement: correct but unwarmed — coherence pushes
            // rebuild the cache over time.
            PSF_WARN() << "adaptation: state transfer from " << old_id
                       << " failed (" << st.to_string()
                       << "); replacement starts cold";
          }
          if (--batch->remaining == 0) {
            finish_cutover(index, std::move(batch->fresh),
                           std::move(batch->event));
          }
        });
  }
}

void AdaptationController::finish_cutover(std::size_t index,
                                          AccessOutcome fresh,
                                          AdaptationEvent event) {
  Tracked& tracked = tracked_[index];
  const RuntimeInstanceId old_entry = tracked.outcome.entry;
  const RuntimeInstanceId new_entry = fresh.entry;
  const auto fail = [&](const std::string& why) {
    event.outcome = AdaptationEvent::Outcome::kFailed;
    event.detail += "; cutover: " + why;
    ++stats_.failed;
    repairing_[index] = 0;
    push_event(std::move(event));
  };
  if (!runtime_.exists(old_entry)) {
    fail("old entry instance vanished");
    return;
  }

  // 1. Graft the new chain onto the client's live entry so the proxy
  //    binding survives the reconfiguration unbroken.
  for (const auto& [iface, target] : runtime_.instance(new_entry).wires) {
    if (auto st = runtime_.wire(old_entry, iface, target); !st.is_ok()) {
      fail(st.to_string());
      return;
    }
  }

  // 2. The freshly deployed entry was only a template; retire it now.
  if (new_entry != old_entry) {
    if (auto st = runtime_.uninstall(new_entry); !st.is_ok()) {
      fail(st.to_string());
      return;
    }
  }

  // 3. Release the old plan's load reservations on reused instances.
  const planner::DeploymentPlan old_plan = tracked.outcome.plan;
  const std::vector<RuntimeInstanceId> old_backing = tracked.outcome.instances;
  for (const planner::Placement& p : old_plan.placements) {
    if (p.reuse_existing) {
      (void)server_.release_load(service_, p.existing_runtime_id,
                                 p.inbound_rate_rps);
    }
  }

  // 4. Adopt the new plan, preserving the live entry id.
  std::vector<RuntimeInstanceId> new_backing = fresh.instances;
  for (RuntimeInstanceId& id : new_backing) {
    if (id == new_entry) id = old_entry;
  }
  tracked.outcome.plan = fresh.plan;
  tracked.outcome.instances = new_backing;
  backing_[index] = new_backing;

  // 5. Retire what nothing references anymore — eagerly out of the plan
  //    cache and reuse pool (a stale handle must never bind a migrated-away
  //    instance), but lazily off the runtime: the old copy keeps serving
  //    stragglers for the drain window, then uninstalls. Anything later
  //    gets kDeadTarget and the retry layer rebinds.
  const std::set<RuntimeInstanceId> still_used = [&] {
    std::set<RuntimeInstanceId> used;
    for (std::size_t i = 0; i < backing_.size(); ++i) {
      used.insert(backing_[i].begin(), backing_[i].end());
    }
    std::vector<RuntimeInstanceId> frontier(used.begin(), used.end());
    while (!frontier.empty()) {
      const RuntimeInstanceId id = frontier.back();
      frontier.pop_back();
      if (!runtime_.exists(id)) continue;
      for (const auto& [iface, target] : runtime_.instance(id).wires) {
        if (used.insert(target).second) frontier.push_back(target);
      }
    }
    return used;
  }();
  for (std::size_t i = 0; i < old_plan.placements.size(); ++i) {
    const planner::Placement& p = old_plan.placements[i];
    const RuntimeInstanceId id = old_backing[i];
    if (p.reuse_existing) continue;           // not ours to retire
    if (id == old_entry) continue;            // preserved
    if (still_used.count(id) != 0) continue;  // someone else still wired
    if (!runtime_.exists(id)) continue;
    if (runtime_.instance(id).def->static_placement) continue;
    (void)server_.forget_instance(service_, id);
    ++stats_.instances_retired;
    runtime_.simulator().schedule(params_.drain, [this, id] {
      if (runtime_.exists(id)) (void)runtime_.uninstall(id);
    });
  }

  event.outcome = AdaptationEvent::Outcome::kRepaired;
  ++stats_.repaired;
  repairing_[index] = 0;
  push_event(std::move(event));
}

void AdaptationController::drain_node(net::NodeId node) {
  if (!drained_.insert(node.value).second) return;
  ++stats_.drains_requested;
  PSF_INFO() << "adaptation: draining node "
             << runtime_.network().node(node).name;
  // Pooled instances on the node must stop being handed out before any
  // repair search runs; forget_instance also evicts cache entries that
  // reference them.
  const std::vector<planner::ExistingInstance> pool =
      server_.existing_instances(service_);
  for (const planner::ExistingInstance& inst : pool) {
    if (inst.node == node) {
      (void)server_.forget_instance(service_, inst.runtime_id);
    }
  }
  check_now();
}

void AdaptationController::push_event(AdaptationEvent event) {
  events_.push_back(std::move(event));
}

}  // namespace psf::runtime
