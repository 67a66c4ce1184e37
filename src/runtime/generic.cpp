#include "runtime/generic.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "runtime/monitor.hpp"
#include "util/logging.hpp"

namespace psf::runtime {

void GenericServer::register_service(
    ServiceRegistration registration,
    std::shared_ptr<const planner::CredentialMapTranslator> translator,
    std::function<void(util::Status)> ready) {
  if (auto st = registration.spec.validate(); !st) {
    ready(st);
    return;
  }
  // Every initial placement is checked before anything is advertised or
  // installed, so a bad one leaves no trace and a corrected registration
  // may follow.
  for (const InitialPlacement& ip : registration.initial_placements) {
    if (registration.spec.find_component(ip.component) == nullptr) {
      ready(util::not_found("initial placement references unknown component '" +
                            ip.component + "'"));
      return;
    }
    if (!runtime_.factories().has(ip.component)) {
      ready(util::not_found("no factory for component '" + ip.component +
                            "'"));
      return;
    }
    if (!ip.node.valid() || ip.node.value >= runtime_.network().node_count()) {
      ready(util::invalid_argument("initial placement of '" + ip.component +
                                   "' names a node outside the network"));
      return;
    }
  }
  const std::string name = registration.spec.name;
  if (services_.count(name) != 0) {
    ready(util::already_exists("service '" + name + "' already registered"));
    return;
  }

  auto state = std::make_unique<ServiceState>();
  state->registration = std::move(registration);
  state->translator = std::move(translator);
  state->env = std::make_unique<planner::EnvironmentView>(runtime_.network(),
                                                          *state->translator);
  state->planner = std::make_unique<planner::Planner>(
      state->registration.spec, *state->env);

  ServiceAdvertisement ad;
  ad.service_name = name;
  ad.attributes = state->registration.attributes;
  ad.server_host = host_;
  ad.proxy_code_bytes = state->registration.proxy_code_bytes;
  ad.server = this;
  if (auto st = lookup_.register_service(std::move(ad)); !st) {
    ready(st);
    return;
  }

  ServiceState* raw = state.get();
  services_.emplace(name, std::move(state));

  // Deploy initial placements. Installation is local to each node (the
  // service operator pre-stages its own components), so no code transfer.
  // If any install fails, the registration is taken back whole once every
  // install has reported: the placements that did install are uninstalled
  // and the service is neither advertised nor kept, so a corrected
  // registration may follow.
  auto pending = std::make_shared<std::size_t>(
      raw->registration.initial_placements.size());
  auto first_error = std::make_shared<util::Status>();
  if (*pending == 0) {
    ready(util::Status::ok());
    return;
  }
  for (const InitialPlacement& ip : raw->registration.initial_placements) {
    const spec::ComponentDef* comp =
        raw->registration.spec.find_component(ip.component);
    runtime_.install(
        *comp, ip.node, ip.factors, ip.node,
        [this, raw, name, comp, ip, pending, first_error,
         ready](util::Expected<RuntimeInstanceId> id) {
          --*pending;
          if (!id) {
            if (first_error->is_ok()) *first_error = id.status();
          } else {
            Instance& inst = runtime_.instance(*id);
            inst.effective = planner::declared_effective(
                raw->registration.spec, *comp,
                raw->env->node_env(ip.node), ip.factors);
            inst.downstream_latency_s =
                comp->behaviors.cpu_per_request /
                runtime_.network().node(ip.node).cpu_capacity;
            auto st = runtime_.start(*id);
            PSF_CHECK_MSG(st.is_ok(), st.to_string());

            planner::ExistingInstance existing;
            existing.runtime_id = *id;
            existing.component = comp;
            existing.node = ip.node;
            existing.factors = ip.factors;
            existing.effective = inst.effective;
            existing.downstream_latency_s = inst.downstream_latency_s;
            existing.current_load_rps = 0.0;
            raw->existing.push_back(std::move(existing));
          }
          if (*pending != 0) return;
          if (!first_error->is_ok()) {
            for (const planner::ExistingInstance& installed : raw->existing) {
              auto st = runtime_.uninstall(installed.runtime_id);
              PSF_CHECK_MSG(st.is_ok(), st.to_string());
            }
            auto st = lookup_.unregister_service(name);
            PSF_CHECK_MSG(st.is_ok(), st.to_string());
            services_.erase(name);  // destroys *raw
          }
          ready(*first_error);
        });
  }
}

void GenericServer::request_access(
    const std::string& service, planner::PlanRequest request,
    std::function<void(util::Expected<AccessOutcome>)> done) {
  ServiceState* state = resolve_request(service, request, done);
  if (state == nullptr) return;
  const std::string fingerprint = plan_fingerprint(request);

  // Warm path: an identical client already holds a validated access path.
  if (try_cached_access(*state, fingerprint, done)) return;

  auto flight = open_flight(*state, fingerprint, done);
  if (flight == nullptr) return;
  // Neither cached nor in flight: this access runs the cold path and is the
  // one that counts as a miss (coalesced waiters do not).
  ++cache_telemetry_.misses;
  TimedPlan planned = timed_search([&](planner::SearchStats& stats) {
    return state->planner->plan(request, state->existing, &stats);
  });
  deploy_plan(*state, std::move(planned),
              [this, state, fingerprint, flight, done = std::move(done)](
                  util::Expected<AccessOutcome> result) mutable {
                finish_access(*state, fingerprint, flight, std::move(done),
                              std::move(result));
              });
}

void GenericServer::request_repair(
    const std::string& service, planner::PlanRequest request,
    const planner::DeploymentPlan& old_plan,
    const std::vector<planner::RepairViolation>& violations,
    std::function<void(util::Expected<AccessOutcome>)> done,
    planner::RepairOutcome* repair_outcome) {
  ServiceState* state = resolve_request(service, request, done);
  if (state == nullptr) return;
  const std::string fingerprint = plan_fingerprint(request);
  ++repair_telemetry_.repairs_attempted;

  auto flight = open_flight(*state, fingerprint, done);
  if (flight == nullptr) return;
  TimedPlan planned = timed_search([&](planner::SearchStats& stats) {
    planner::RepairOutcome outcome;
    auto plan = state->planner->repair(request, old_plan, violations,
                                       state->existing, &outcome);
    if (outcome.fell_back_to_full) ++repair_telemetry_.full_fallbacks;
    stats = outcome.stats;
    if (repair_outcome != nullptr) *repair_outcome = std::move(outcome);
    return plan;
  });
  repair_telemetry_.repair_wall_ms.add(planned.wall_seconds * 1000.0);
  repair_telemetry_.repair_candidates.add(
      static_cast<double>(planned.stats.candidates_examined));
  repair_telemetry_.repair_completions.add(
      static_cast<double>(planned.stats.completions));
  deploy_plan(*state, std::move(planned),
              [this, state, fingerprint, flight, done = std::move(done)](
                  util::Expected<AccessOutcome> result) mutable {
                if (result) ++repair_telemetry_.repairs_succeeded;
                finish_access(*state, fingerprint, flight, std::move(done),
                              std::move(result));
              });
}

GenericServer::ServiceState* GenericServer::resolve_request(
    const std::string& service, planner::PlanRequest& request,
    AccessCallback& done) {
  ServiceState* state = state_of(service);
  if (state == nullptr) {
    done(util::not_found("service '" + service + "' not registered"));
    return nullptr;
  }
  // Before the fingerprint and the cache: a NaN rate would share the 1 rps
  // rate bucket's entry, and its load accounting would turn every pooled
  // load it touches into NaN, which then admits any rate.
  if (!std::isfinite(request.request_rate_rps) ||
      request.request_rate_rps < 0.0) {
    done(util::invalid_argument("request rate must be finite and >= 0"));
    return nullptr;
  }
  if (!request.code_origin.valid()) {
    request.code_origin = state->registration.code_origin;
  }
  return state;
}

std::shared_ptr<GenericServer::InFlightAccess> GenericServer::open_flight(
    ServiceState& state, const std::string& fingerprint,
    AccessCallback& done) {
  // Coalesce: an identical access or repair is being planned/deployed right
  // now — attach as a waiter instead of running the planner again. This is
  // how the "thundering herd" on a newly advertised service, and a client
  // rebinding mid-repair, converge on one planner run.
  if (auto it = state.inflight.find(fingerprint);
      it != state.inflight.end()) {
    ++cache_telemetry_.coalesced;
    it->second->waiters.push_back(std::move(done));
    return nullptr;
  }
  auto flight = std::make_shared<InFlightAccess>();
  flight->epoch_at_start = state.epoch;
  state.inflight.emplace(fingerprint, flight);

  // Lazily retire pooled instances stranded by a crash upstream: alive but
  // wired (transitively) to a dead instance. Without detection enabled no
  // monitor event fires, so this sweep is what keeps replans (and repairs,
  // whose triggering violation usually strands some) from rebuilding the
  // same broken chain.
  for (auto it = state.existing.begin(); it != state.existing.end();) {
    if (runtime_.has_dangling_wires(it->runtime_id)) {
      PSF_INFO() << "retiring pooled instance " << it->runtime_id << " ("
                 << it->component->name << "): dangling wire downstream";
      state.cache.evict_referencing(it->runtime_id, cache_telemetry_);
      it = state.existing.erase(it);
    } else {
      ++it;
    }
  }
  return flight;
}

GenericServer::TimedPlan GenericServer::timed_search(
    const PlanSearch& search) {
  // detlint:allow(DET004 planning wall time is bench telemetry)
  const auto wall_start = std::chrono::steady_clock::now();
  planner::SearchStats stats;
  auto plan = search(stats);
  const double wall_seconds =
      // detlint:allow(DET004 planning wall time is bench telemetry)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  return {std::move(plan), stats, wall_seconds};
}

void GenericServer::deploy_plan(ServiceState& state, TimedPlan planned,
                                AccessCallback publish) {
  if (!planned.plan) {
    publish(planned.plan.status());
    return;
  }
  const double planning_units =
      state.registration.planning_cpu_per_candidate *
      static_cast<double>(planned.stats.candidates_examined);
  const sim::Time before_planning = runtime_.simulator().now();
  auto plan = std::make_shared<planner::DeploymentPlan>(
      std::move(planned.plan).value());
  runtime_.charge_cpu(
      host_, planning_units,
      [this, service = &state, plan, before_planning, stats = planned.stats,
       wall_seconds = planned.wall_seconds,
       publish = std::move(publish)]() mutable {
        const sim::Time after_planning = runtime_.simulator().now();
        engine_.deploy(
            *plan, service->registration.code_origin,
            [this, service, plan, before_planning, after_planning, stats,
             wall_seconds, publish = std::move(publish)](
                util::Expected<DeployedPlan> deployed) mutable {
              if (!deployed) {
                publish(deployed.status());
                return;
              }
              absorb_deployment(*service, *plan, *deployed);
              AccessOutcome outcome;
              outcome.entry = deployed->entry;
              outcome.plan = *plan;
              outcome.instances = deployed->instances;
              outcome.costs.planning = after_planning - before_planning;
              outcome.costs.deployment = deployed->elapsed;
              outcome.costs.planning_wall_seconds = wall_seconds;
              outcome.search = stats;
              publish(std::move(outcome));
            });
      });
}

bool GenericServer::try_cached_access(ServiceState& state,
                                      const std::string& fingerprint,
                                      AccessCallback& done) {
  // detlint:allow(DET004 warm-access wall time is bench telemetry)
  const auto wall_start = std::chrono::steady_clock::now();
  PlanCache::Entry* entry =
      state.cache.find(fingerprint, state.epoch, cache_telemetry_);
  if (entry == nullptr) return false;

  // Hit-time validation. Epoch matching proved the environment unchanged,
  // but the instance population moves independently of it: crashes,
  // uninstalls, redeployment retirements (forget_instance), and load added
  // by other plans since the entry was created.
  enum class Evict { kNone, kLiveness, kCapacity };
  Evict evict = Evict::kNone;
  for (RuntimeInstanceId id : entry->access.instances) {
    // Dead, or alive but wired (transitively) to a dead instance: either way
    // the cached path cannot serve and must be replanned.
    if (runtime_.has_dangling_wires(id)) {
      evict = Evict::kLiveness;
      break;
    }
  }
  if (evict == Evict::kNone) {
    const planner::DeploymentPlan& plan = entry->access.plan;
    for (std::size_t i = 0; i < plan.placements.size(); ++i) {
      const planner::Placement& p = plan.placements[i];
      if (p.id == plan.entry) continue;  // client-private, never pooled
      const planner::ExistingInstance* pooled = nullptr;
      for (const planner::ExistingInstance& inst : state.existing) {
        if (inst.runtime_id == entry->access.instances[i]) {
          pooled = &inst;
          break;
        }
      }
      if (pooled == nullptr) {
        // Forgotten (retired by redeployment) — must not be handed out.
        evict = Evict::kLiveness;
        break;
      }
      // Mirror the planner's instance-capacity condition (§3.3 condition 3):
      // admitting this client must not oversubscribe a shared component.
      const double capacity = p.component->behaviors.capacity_rps;
      if (capacity > 0.0 &&
          pooled->current_load_rps + p.inbound_rate_rps > capacity) {
        evict = Evict::kCapacity;
        break;
      }
    }
  }
  if (evict != Evict::kNone) {
    if (evict == Evict::kLiveness) {
      ++cache_telemetry_.liveness_evictions;
    } else {
      ++cache_telemetry_.capacity_evictions;
    }
    state.cache.erase(fingerprint, cache_telemetry_);
    return false;  // fall through to a cold replan
  }

  // Hit: replay the stored outcome. The client shares the cached entry
  // binding; no planning, no deployment, no CPU charged at the server.
  ++cache_telemetry_.hits;
  ++entry->hits;
  account_access_load(state, entry->access.plan, entry->access.instances);
  AccessOutcome outcome;
  outcome.entry = entry->access.entry;
  outcome.plan = entry->access.plan;
  outcome.instances = entry->access.instances;
  outcome.cache_hit = true;
  outcome.costs.planning_wall_seconds =
      // detlint:allow(DET004 warm-access wall time is bench telemetry)
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  done(std::move(outcome));
  return true;
}

void GenericServer::account_access_load(
    ServiceState& state, const planner::DeploymentPlan& plan,
    const std::vector<RuntimeInstanceId>& instances) {
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const planner::Placement& p = plan.placements[i];
    if (p.id == plan.entry) continue;
    for (planner::ExistingInstance& existing : state.existing) {
      if (existing.runtime_id == instances[i]) {
        existing.current_load_rps += p.inbound_rate_rps;
        break;
      }
    }
  }
}

void GenericServer::finish_access(
    ServiceState& state, const std::string& fingerprint,
    const std::shared_ptr<InFlightAccess>& flight,
    std::function<void(util::Expected<AccessOutcome>)> primary,
    util::Expected<AccessOutcome> result) {
  // Release the slot and publish into the cache BEFORE invoking callbacks:
  // a callback may synchronously issue another identical access, which
  // should now hit the cache rather than re-coalesce on a dead flight.
  state.inflight.erase(fingerprint);
  auto waiters = std::move(flight->waiters);
  flight->waiters.clear();

  if (result) {
    account_access_load(state, result->plan, result->instances);
    if (state.epoch == flight->epoch_at_start) {
      CachedAccess cached;
      cached.plan = result->plan;
      cached.instances = result->instances;
      cached.entry = result->entry;
      state.cache.insert(fingerprint, state.epoch, std::move(cached),
                         cache_telemetry_);
    }
    // Each waiter is a distinct client riding the same deployment: account
    // its load on the shared placements exactly as a cache hit would.
    primary(util::Expected<AccessOutcome>(result.value()));
    for (auto& waiter : waiters) {
      account_access_load(state, result->plan, result->instances);
      AccessOutcome copy = result.value();
      copy.coalesced = true;
      waiter(std::move(copy));
    }
  } else {
    primary(result.status());
    for (auto& waiter : waiters) waiter(result.status());
  }
}

void GenericServer::absorb_deployment(ServiceState& state,
                                      const planner::DeploymentPlan& plan,
                                      const DeployedPlan& deployed) {
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const planner::Placement& p = plan.placements[i];
    if (p.reuse_existing || p.id == plan.entry) continue;
    planner::ExistingInstance existing;
    existing.runtime_id = deployed.instances[i];
    existing.component = p.component;
    existing.node = p.node;
    existing.factors = p.factors;
    existing.effective = p.effective;
    existing.downstream_latency_s = p.expected_latency_s;
    if (justified(state, existing)) {
      state.existing.push_back(std::move(existing));
    }
  }
}

bool GenericServer::justified(const ServiceState& state,
                              const planner::ExistingInstance& inst) const {
  if (!runtime_.exists(inst.runtime_id)) return false;  // crashed/retired
  const spec::Environment& env = state.env->node_env(inst.node);
  for (const spec::Condition& cond : inst.component->conditions) {
    if (!cond.holds(env)) return false;
  }
  for (const spec::PropertyAssignment& f : inst.component->factors) {
    auto it = inst.factors.values.find(f.property);
    if (it == inst.factors.values.end() ||
        !(it->second == planner::resolve_value(f.value, env, inst.factors))) {
      return false;
    }
  }
  return true;
}

util::Status GenericServer::refresh_environment(const std::string& service) {
  ServiceState* state = state_of(service);
  if (state == nullptr) {
    return util::not_found("service '" + service + "' not registered");
  }
  // The world the cached plans were computed against is gone: bump the
  // epoch so they lazily invalidate.
  ++state->epoch;
  ++cache_telemetry_.epoch_bumps;
  state->env = std::make_unique<planner::EnvironmentView>(runtime_.network(),
                                                          *state->translator);
  state->planner = std::make_unique<planner::Planner>(
      state->registration.spec, *state->env);

  // Quarantine reusable instances the new environment no longer justifies
  // so they are never offered to future plans. An instance keeps running —
  // the AdaptationController decides when to retire it.
  for (auto it = state->existing.begin(); it != state->existing.end();) {
    if (justified(*state, *it)) {
      ++it;
    } else {
      PSF_INFO() << "environment refresh quarantines instance "
                 << it->runtime_id << " (" << it->component->name << " at "
                 << runtime_.network().node(it->node).name << ")";
      it = state->existing.erase(it);
    }
  }
  return util::Status::ok();
}

util::Status GenericServer::forget_instance(const std::string& service,
                                            RuntimeInstanceId id) {
  ServiceState* state = state_of(service);
  if (state == nullptr) {
    return util::not_found("service '" + service + "' not registered");
  }
  for (auto it = state->existing.begin(); it != state->existing.end(); ++it) {
    if (it->runtime_id == id) {
      state->existing.erase(it);
      // A cached plan that hands out a binding to the retired instance must
      // never be replayed; the hit-time pool check would also catch it, but
      // eager eviction keeps the cache honest for diagnostics.
      state->cache.evict_referencing(id, cache_telemetry_);
      return util::Status::ok();
    }
  }
  return util::not_found("instance " + std::to_string(id) +
                         " not in the reusable pool");
}

util::Status GenericServer::release_load(const std::string& service,
                                         RuntimeInstanceId id,
                                         double rate_rps) {
  ServiceState* state = state_of(service);
  if (state == nullptr) {
    return util::not_found("service '" + service + "' not registered");
  }
  for (auto& existing : state->existing) {
    if (existing.runtime_id == id) {
      existing.current_load_rps =
          std::max(0.0, existing.current_load_rps - rate_rps);
      return util::Status::ok();
    }
  }
  return util::not_found("instance " + std::to_string(id) +
                         " not in the reusable pool");
}

const std::vector<planner::ExistingInstance>& GenericServer::existing_instances(
    const std::string& service) const {
  static const std::vector<planner::ExistingInstance> kEmpty;
  const ServiceState* state = state_of(service);
  return state == nullptr ? kEmpty : state->existing;
}

void GenericServer::invalidate_cached_plans() {
  for (auto& [name, state] : services_) ++state->epoch;
  ++cache_telemetry_.epoch_bumps;
}

void GenericServer::attach_monitor(NetworkMonitor& monitor) {
  monitor.subscribe([this](const NetworkMonitor::ChangeEvent& event) {
    invalidate_cached_plans();
    if (event.kind != NetworkMonitor::ChangeKind::kNodeFailure) return;
    // A reported node failure eagerly retires every pooled instance hosted
    // there and evicts cached plans that hand out bindings to them. The
    // epoch bump above already makes those entries stale; eager eviction
    // means no replay window exists even for requests racing the refresh.
    for (auto& [name, state] : services_) {
      for (auto it = state->existing.begin(); it != state->existing.end();) {
        if (it->node == event.node) {
          const RuntimeInstanceId dead = it->runtime_id;
          PSF_INFO() << "node-failure report retires pooled instance " << dead
                     << " (" << it->component->name << ")";
          it = state->existing.erase(it);
          state->cache.evict_referencing(dead, cache_telemetry_);
        } else {
          ++it;
        }
      }
    }
  });
}

std::uint64_t GenericServer::environment_epoch(
    const std::string& service) const {
  const ServiceState* state = state_of(service);
  return state == nullptr ? 0 : state->epoch;
}

std::size_t GenericServer::plan_cache_size(const std::string& service) const {
  const ServiceState* state = state_of(service);
  return state == nullptr ? 0 : state->cache.size();
}

const spec::ServiceSpec* GenericServer::service_spec(
    const std::string& service) const {
  const ServiceState* state = state_of(service);
  return state == nullptr ? nullptr : &state->registration.spec;
}

const planner::EnvironmentView* GenericServer::environment(
    const std::string& service) const {
  const ServiceState* state = state_of(service);
  return state == nullptr ? nullptr : state->env.get();
}

GenericServer::ServiceState* GenericServer::state_of(
    const std::string& service) {
  auto it = services_.find(service);
  return it == services_.end() ? nullptr : it->second.get();
}

const GenericServer::ServiceState* GenericServer::state_of(
    const std::string& service) const {
  auto it = services_.find(service);
  return it == services_.end() ? nullptr : it->second.get();
}

// ---- GenericProxy ----------------------------------------------------------

namespace {

// A bind that lost a hop failed in transport, so the retry layer retries
// it; any other bind failure (unknown service, unsatisfiable plan) is final.
Response bind_failure(const util::Status& status) {
  std::string message = "bind failed: " + status.to_string();
  return status.code() == util::ErrorCode::kUnavailable
             ? Response::transport_failure(TransportError::kDropped,
                                           std::move(message))
             : Response::failure(std::move(message));
}

}  // namespace

void GenericProxy::bind(std::function<void(util::Status)> done) {
  if (bound_) {
    done(util::Status::ok());
    return;
  }
  waiters_.push_back(std::move(done));
  if (binding_) return;  // an earlier bind is in flight; join it
  binding_ = true;

  const ServiceAdvertisement* ad = lookup_.find(service_);
  if (ad == nullptr || ad->server == nullptr) {
    binding_ = false;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto& w : waiters) {
      w(util::not_found("service '" + service_ + "' not in lookup service"));
    }
    return;
  }

  const sim::Time t0 = runtime_.simulator().now();
  // Step 2 of Fig. 1: attribute query to the lookup node, proxy download
  // back to the client. A node that already downloaded this service's proxy
  // keeps it cached — repeat binds from the site pay only a small
  // freshness-check reply instead of the full code transfer.
  const std::uint64_t download_bytes =
      lookup_.proxy_code_cached(service_, client_node_)
          ? kProxyRevalidateBytes
          : ad->proxy_code_bytes;
  const net::NodeId registry = lookup_.host();
  runtime_.send_bytes(
      client_node_, registry, 512,
      [this, ad, t0, registry, download_bytes]() {
        runtime_.send_bytes(
            registry, client_node_, download_bytes,
            [this, ad, t0]() {
              lookup_.note_proxy_download(service_, client_node_);
              const sim::Time lookup_done = runtime_.simulator().now();
              // Step 3: forward the access request (with credentials) to
              // the generic server.
              planner::PlanRequest request = defaults_;
              request.client_node = client_node_;
              runtime_.send_bytes(
                  client_node_, ad->server_host, 1024,
                  [this, ad, request, t0, lookup_done]() {
                    ad->server->request_access(
                        service_, request,
                        [this, ad, t0, lookup_done](
                            util::Expected<AccessOutcome> outcome) {
                          if (!outcome) {
                            finish_bind(outcome.status());
                            return;
                          }
                          outcome_ = std::move(outcome).value();
                          outcome_.costs.lookup = lookup_done - t0;
                          // Small acknowledgement back to the client
                          // completes the generic→specific proxy swap.
                          runtime_.send_bytes(
                              ad->server_host, client_node_, 256,
                              [this]() {
                                bound_ = true;
                                finish_bind(util::Status::ok());
                              },
                              [this, ad](TransportError error) {
                                // The server accounted this client's load
                                // before acknowledging; the retry's rebind
                                // accounts it again, so take it back.
                                release_access_load(*ad->server);
                                lost_hop("acknowledgement")(error);
                              });
                        });
                  },
                  lost_hop("access request"));
            },
            lost_hop("proxy download"));
      },
      lost_hop("lookup query"));
}

void GenericProxy::release_access_load(GenericServer& server) {
  const planner::DeploymentPlan& plan = outcome_.plan;
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const planner::Placement& p = plan.placements[i];
    if (p.id == plan.entry) continue;
    (void)server.release_load(service_, outcome_.instances[i],
                              p.inbound_rate_rps);
  }
}

void GenericProxy::finish_bind(util::Status status) {
  binding_ = false;
  auto waiters = std::move(waiters_);
  waiters_.clear();
  for (auto& w : waiters) w(status);
}

std::function<void(TransportError)> GenericProxy::lost_hop(const char* hop) {
  return [this, hop](TransportError error) {
    finish_bind(util::unavailable(std::string("bind lost its ") + hop + " (" +
                                  transport_error_name(error) + ")"));
  };
}

void GenericProxy::invoke(Request request, ResponseCallback done) {
  if (retry_) {
    auto call = std::make_shared<PendingInvoke>();
    call->request = std::move(request);
    call->done = std::move(done);
    call->deadline = policy_.overall_deadline.nanos() > 0
                         ? runtime_.simulator().now() + policy_.overall_deadline
                         : sim::Time::max();
    start_attempt(call);
    return;
  }
  if (!bound_) {
    bind([this, request = std::move(request),
          done = std::move(done)](util::Status st) mutable {
      if (!st) {
        done(bind_failure(st));
        return;
      }
      runtime_.invoke_from_node(client_node_, outcome_.entry,
                                std::move(request), std::move(done));
    });
    return;
  }
  runtime_.invoke_from_node(client_node_, outcome_.entry, std::move(request),
                            std::move(done));
}

void GenericProxy::enable_retries(RetryPolicy policy,
                                  RetryTelemetry* telemetry) {
  PSF_CHECK(policy.max_attempts >= 1);
  PSF_CHECK(policy.jitter >= 0.0 && policy.jitter < 1.0);
  retry_ = true;
  policy_ = policy;
  telemetry_ = telemetry;
  retry_rng_ = util::Rng(policy.seed ^
                         (static_cast<std::uint64_t>(client_node_.value) *
                          0x9E3779B97F4A7C15ULL));
}

void GenericProxy::start_attempt(const std::shared_ptr<PendingInvoke>& call) {
  ++call->attempts;
  if (telemetry_ != nullptr) {
    ++telemetry_->attempts;
    if (call->attempts > 1) ++telemetry_->retries;
  }
  if (bound_) {
    send_attempt(call);
    return;
  }
  // (Re)bind first. The bind handshake rides the same fabric as everything
  // else, so it is guarded by the attempt timeout: an unreachable registry
  // or server must fail the attempt, not hang the call forever.
  auto settled = std::make_shared<bool>(false);
  auto timer = std::make_shared<sim::EventId>(0);
  if (policy_.attempt_timeout.nanos() > 0) {
    *timer =
        runtime_.simulator().schedule(policy_.attempt_timeout, [this, call,
                                                                settled] {
          if (*settled) return;
          *settled = true;
          complete_attempt(call,
                           Response::transport_failure(
                               TransportError::kTimeout,
                               "bind did not complete within the attempt "
                               "timeout"));
        });
  }
  bind([this, call, settled, timer](util::Status st) {
    if (*settled) return;
    *settled = true;
    runtime_.simulator().cancel(*timer);
    if (!st) {
      complete_attempt(call, bind_failure(st));
      return;
    }
    send_attempt(call);
  });
}

void GenericProxy::send_attempt(const std::shared_ptr<PendingInvoke>& call) {
  runtime_.invoke_from_node(
      client_node_, outcome_.entry, call->request,
      [this, call](Response response) {
        complete_attempt(call, std::move(response));
      },
      policy_.attempt_timeout);
}

void GenericProxy::complete_attempt(
    const std::shared_ptr<PendingInvoke>& call, Response response) {
  if (response.ok || response.transport == TransportError::kNone) {
    // Success, or an application-level error — both final.
    if (telemetry_ != nullptr && response.ok) ++telemetry_->successes;
    call->done(std::move(response));
    return;
  }
  if (telemetry_ != nullptr) {
    if (response.transport == TransportError::kTimeout) ++telemetry_->timeouts;
    if (response.transport == TransportError::kDeadTarget) {
      ++telemetry_->dead_targets;
    }
  }

  // Capped exponential backoff with seeded jitter before the next attempt.
  const std::size_t shift = std::min<std::size_t>(call->attempts - 1, 20);
  double raw_ns = static_cast<double>(policy_.backoff_base.nanos()) *
                  static_cast<double>(std::uint64_t{1} << shift);
  raw_ns = std::min(raw_ns, static_cast<double>(policy_.backoff_cap.nanos()));
  const double jitter_factor =
      1.0 + policy_.jitter * (2.0 * retry_rng_.next_double() - 1.0);
  const sim::Duration backoff = sim::Duration::from_nanos(
      static_cast<std::int64_t>(raw_ns * jitter_factor));

  const bool attempts_left = call->attempts < policy_.max_attempts;
  const bool deadline_ok =
      runtime_.simulator().now() + backoff < call->deadline;
  if (!attempts_left || !deadline_ok) {
    call->done(std::move(response));
    return;
  }

  if (policy_.rebind_on_unreachable && bound_ &&
      (response.transport == TransportError::kUnreachable ||
       response.transport == TransportError::kDeadTarget)) {
    // The binding points somewhere that cannot serve us; drop it and
    // re-request an access path on the next attempt. The server's plan
    // cache will not replay a path through dead instances (hit-time
    // liveness validation + failure-event eviction).
    bound_ = false;
    if (telemetry_ != nullptr) ++telemetry_->rebinds;
  }

  runtime_.simulator().schedule(backoff,
                                [this, call] { start_attempt(call); });
}

}  // namespace psf::runtime
