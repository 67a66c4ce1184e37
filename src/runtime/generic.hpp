// Generic proxy and generic server (§3.2, steps 1–5 of Fig. 1).
//
// Service registration installs an advertisement + generic proxy in the
// lookup service and deploys the service's initial components (e.g. the
// MailServer at its home node). A client's GenericProxy, on first use,
// looks up the service, downloads the proxy code, and sends an access
// request to the generic server, which plans a deployment (charging
// planning CPU at its host), drives the deployment engine, and returns a
// binding to the entry component — at which point the generic proxy
// "replaces itself with a service-specific proxy" and later calls go
// straight to the deployed entry instance.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "planner/environment.hpp"
#include "planner/planner.hpp"
#include "runtime/deployment.hpp"
#include "runtime/lookup.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/retry.hpp"
#include "runtime/smock.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

namespace psf::runtime {

class NetworkMonitor;

struct InitialPlacement {
  std::string component;  // component name in the spec
  net::NodeId node;
  planner::FactorBindings factors;
};

struct ServiceRegistration {
  spec::ServiceSpec spec;
  net::NodeId code_origin;  // where component code is served from
  std::vector<InitialPlacement> initial_placements;
  std::uint64_t proxy_code_bytes = 32 * 1024;
  std::map<std::string, std::string> attributes;
  // Abstract CPU units the generic server spends per planner candidate
  // examined; models planning as real work at the server host.
  double planning_cpu_per_candidate = 0.5;
  // Ignored: every access plans to completion. Kept only because
  // bench/psfbench/workloads.cpp assigns it; delete it together with that
  // line.
  double anytime_deadline_s = 0.0;
};

// Closed-loop repair counters (GenericServer::repair_telemetry). The
// per-repair samples are what the adaptation bench compares against cold
// planning to gate "repair ≪ cold replan": candidates deterministically,
// wall-clock within a tolerance.
struct RepairTelemetry {
  std::uint64_t repairs_attempted = 0;
  std::uint64_t repairs_succeeded = 0;   // repaired plan deployed
  std::uint64_t full_fallbacks = 0;      // restricted search was infeasible
  util::SampleSet repair_wall_ms;        // planner wall-clock per repair
  util::SampleSet repair_candidates;     // candidates examined per repair
  util::SampleSet repair_completions;    // SearchStats::completions per repair
};

// One-time costs of establishing service access (§4.2 reports these summing
// to ~10 s in the paper's configurations).
struct AccessCosts {
  sim::Duration lookup = sim::Duration::zero();    // query + proxy download
  sim::Duration planning = sim::Duration::zero();  // at the server host
  sim::Duration deployment = sim::Duration::zero();
  double planning_wall_seconds = 0.0;  // host wall-clock, for benches

  sim::Duration total() const { return lookup + planning + deployment; }
};

struct AccessOutcome {
  RuntimeInstanceId entry = 0;
  planner::DeploymentPlan plan;
  // Runtime instance behind each plan placement (index-aligned); reused
  // placements resolve to the pre-existing instance.
  std::vector<RuntimeInstanceId> instances;
  AccessCosts costs;
  // Planner search statistics; all-zero on a cache hit (no search ran).
  planner::SearchStats search;
  // Served from the plan cache: the client shares a previously deployed
  // access path and paid neither planning nor deployment.
  bool cache_hit = false;
  // Attached as a waiter to an identical in-flight access; the planner ran
  // once for the whole batch.
  bool coalesced = false;
};

class GenericServer {
 public:
  GenericServer(SmockRuntime& runtime, net::NodeId host,
                LookupService& lookup)
      : runtime_(runtime), host_(host), lookup_(lookup), engine_(runtime) {}

  net::NodeId host() const { return host_; }

  // Registers the service: validates the spec, advertises it in the lookup
  // service, deploys initial placements (locally at their nodes — no code
  // transfer), and invokes `ready`.
  void register_service(
      ServiceRegistration registration,
      std::shared_ptr<const planner::CredentialMapTranslator> translator,
      std::function<void(util::Status)> ready);

  // Plans + deploys an access path for a client. `request.client_node` and
  // the interface must be set by the caller (the proxy fills these in).
  void request_access(
      const std::string& service, planner::PlanRequest request,
      std::function<void(util::Expected<AccessOutcome>)> done);

  // Incremental repair of a running access path (ROADMAP item 2): like
  // request_access's cold path, but the search runs Planner::repair against
  // the broken plan + violations, pinning survivors and re-searching only
  // the affected neighborhood. No cache lookup — a repair exists precisely
  // because the cached path went bad — but the result IS published to the
  // cache under the current epoch, and identical accesses arriving while
  // the repair is in flight coalesce onto it, so rebinding clients ride the
  // repair instead of triggering cold replans. `repair_outcome` (optional)
  // is filled synchronously, before any simulated time elapses.
  void request_repair(
      const std::string& service, planner::PlanRequest request,
      const planner::DeploymentPlan& old_plan,
      const std::vector<planner::RepairViolation>& violations,
      std::function<void(util::Expected<AccessOutcome>)> done,
      planner::RepairOutcome* repair_outcome = nullptr);

  const RepairTelemetry& repair_telemetry() const { return repair_telemetry_; }

  // Re-translates environments after the network changed (monitor callback)
  // and replans still-registered access paths on demand. Bumps the service's
  // environment epoch, lazily invalidating every cached access path.
  util::Status refresh_environment(const std::string& service);

  // Subscribes to the monitor: every reported change bumps the environment
  // epoch of every registered service, so cached access paths planned
  // against the old topology are never replayed — even before any
  // refresh_environment runs. Wired by the Framework at construction.
  void attach_monitor(NetworkMonitor& monitor);

  // Bumps every service's environment epoch, lazily invalidating all cached
  // access paths. Called by the monitor subscription above.
  void invalidate_cached_plans();

  // Current environment epoch (0 until the first bump); 0 for unknown
  // services.
  std::uint64_t environment_epoch(const std::string& service) const;

  // Cached access paths currently held for `service` (diagnostics/tests).
  std::size_t plan_cache_size(const std::string& service) const;

  // Cache/coalescing counters, shared across all services this server hosts.
  const PlanCacheTelemetry& access_telemetry() const {
    return cache_telemetry_;
  }

  // Reusable instances the planner may bind to (diagnostics/tests).
  const std::vector<planner::ExistingInstance>& existing_instances(
      const std::string& service) const;

  // Removes an instance from the reusable pool (it is being retired by a
  // redeployment); does not touch the runtime instance itself.
  util::Status forget_instance(const std::string& service,
                               RuntimeInstanceId id);

  // Shifts recorded load off a reused instance when a deployment that was
  // using it is retired.
  util::Status release_load(const std::string& service, RuntimeInstanceId id,
                            double rate_rps);

  const spec::ServiceSpec* service_spec(const std::string& service) const;
  const planner::EnvironmentView* environment(const std::string& service) const;

 private:
  using AccessCallback = std::function<void(util::Expected<AccessOutcome>)>;

  // Requests coalescing on an identical in-flight access: the first caller
  // runs the planner, later identical callers attach here and receive
  // copies of the outcome (flagged `coalesced`).
  struct InFlightAccess {
    std::uint64_t epoch_at_start = 0;
    std::vector<AccessCallback> waiters;
  };

  // The first half of the cold path: a search, run synchronously and timed
  // on the host clock for the benches.
  struct TimedPlan {
    util::Expected<planner::DeploymentPlan> plan;
    planner::SearchStats stats;
    double wall_seconds = 0.0;
  };
  using PlanSearch = std::function<util::Expected<planner::DeploymentPlan>(
      planner::SearchStats&)>;

  struct ServiceState {
    ServiceRegistration registration;
    std::shared_ptr<const planner::CredentialMapTranslator> translator;
    std::unique_ptr<planner::EnvironmentView> env;
    std::unique_ptr<planner::Planner> planner;
    std::vector<planner::ExistingInstance> existing;
    // Per-service environment epoch; cache entries tagged with an older
    // epoch are stale.
    std::uint64_t epoch = 0;
    PlanCache cache;
    std::map<std::string, std::shared_ptr<InFlightAccess>> inflight;
  };

  ServiceState* state_of(const std::string& service);
  const ServiceState* state_of(const std::string& service) const;

  // Request preparation shared by access and repair: looks up the service
  // (failing `done` when it is unknown or the rate is not a finite
  // non-negative number) and defaults the code origin.
  ServiceState* resolve_request(const std::string& service,
                                planner::PlanRequest& request,
                                AccessCallback& done);

  // Attaches `done` to an identical in-flight access or repair and returns
  // nullptr, or opens a new flight for `fingerprint` and returns it. Opening
  // a flight first retires pooled instances stranded by a crash upstream.
  std::shared_ptr<InFlightAccess> open_flight(ServiceState& state,
                                              const std::string& fingerprint,
                                              AccessCallback& done);

  static TimedPlan timed_search(const PlanSearch& search);

  // The second half of the one cold path (Fig. 1 steps 3-5), shared by
  // access and repair: charges the search's candidates as
  // planning CPU at this host, deploys, pools the plan's new shared
  // instances (absorb_deployment), and hands `publish` the outcome. A
  // failed search or deploy reaches `publish` as its status.
  void deploy_plan(ServiceState& state, TimedPlan planned,
                   AccessCallback publish);

  // Adds a deployment's new shared instances to the reusable pool with zero
  // load: load belongs to bound clients, and each accounts its own through
  // account_access_load. Entry components are client-private and excluded,
  // and so is any instance the current environment does not justify (a
  // refresh_environment ran while the plan was charged or deployed).
  void absorb_deployment(ServiceState& state,
                         const planner::DeploymentPlan& plan,
                         const DeployedPlan& deployed);

  // Whether `inst` may be offered to future plans under the service's
  // current environment: it is alive, its installation conditions hold at
  // its node, and its factor bindings re-derive from that node (a trust-4
  // view on a node demoted to trust 3 does not). The one test every pooled
  // instance passes — on entry and at every refresh_environment.
  bool justified(const ServiceState& state,
                 const planner::ExistingInstance& inst) const;

  // Warm path: replays a cached outcome when one exists for `fingerprint`
  // under the current epoch AND every instance it hands out is alive, still
  // pooled, and has capacity headroom for the added load. Returns true when
  // `done` was invoked (synchronously — a hit costs no simulated time at
  // the server). Failed validation evicts the entry and returns false.
  bool try_cached_access(ServiceState& state, const std::string& fingerprint,
                         AccessCallback& done);

  // Accounts one bound client's load on the shared (non-entry) placements
  // of `plan`: the cold primary, each coalesced waiter and each cache hit.
  void account_access_load(ServiceState& state,
                           const planner::DeploymentPlan& plan,
                           const std::vector<RuntimeInstanceId>& instances);

  // Access/repair completion: releases the in-flight slot, publishes the
  // outcome into the cache (unless the epoch moved while planning), and
  // fans it out to the primary caller and every coalesced waiter, each
  // accounting its own load first.
  void finish_access(ServiceState& state, const std::string& fingerprint,
                     const std::shared_ptr<InFlightAccess>& flight,
                     AccessCallback primary,
                     util::Expected<AccessOutcome> result);

  SmockRuntime& runtime_;
  net::NodeId host_;
  LookupService& lookup_;
  DeploymentEngine engine_;
  std::map<std::string, std::unique_ptr<ServiceState>> services_;
  PlanCacheTelemetry cache_telemetry_;
  RepairTelemetry repair_telemetry_;
};

class GenericProxy {
 public:
  // `defaults` carries the client's interface + property requirements +
  // request rate; client_node is filled from `client_node`.
  GenericProxy(SmockRuntime& runtime, LookupService& lookup,
               net::NodeId client_node, std::string service,
               planner::PlanRequest defaults)
      : runtime_(runtime),
        lookup_(lookup),
        client_node_(client_node),
        service_(std::move(service)),
        defaults_(std::move(defaults)) {}

  bool bound() const { return bound_; }
  const AccessOutcome& outcome() const {
    PSF_CHECK_MSG(bound_, "proxy not bound yet");
    return outcome_;
  }

  // Performs lookup + proxy download + access request + deployment; idempotent
  // once bound. A hop the network loses fails the bind as unavailable.
  void bind(std::function<void(util::Status)> done);

  // Invokes the service. Auto-binds on first use (the paper's transparent
  // generic→specific proxy replacement). With retries enabled (below),
  // transport failures are retried under the policy's backoff/budget and
  // the callback fires exactly once with the final outcome.
  void invoke(Request request, ResponseCallback done);

  // Turns on the client-resilience policy for subsequent invokes. The
  // jitter RNG is seeded from policy.seed mixed with the client node, so a
  // fleet of proxies sharing one policy still draws independent streams —
  // deterministically. `telemetry` (optional, caller-owned) accumulates
  // attempt/retry/timeout counters.
  void enable_retries(RetryPolicy policy, RetryTelemetry* telemetry = nullptr);
  bool retries_enabled() const { return retry_; }

 private:
  // One logical invoke() under the retry policy: tracks the attempt budget
  // and overall deadline across wire attempts.
  struct PendingInvoke {
    Request request;
    ResponseCallback done;
    std::size_t attempts = 0;  // wire attempts made so far
    sim::Time deadline;        // Time::max() when the policy sets none
  };

  void finish_bind(util::Status status);
  // Drop handler for one bind hop: losing it ends the bind as unavailable,
  // so the next bind() starts afresh instead of joining a dead flight.
  std::function<void(TransportError)> lost_hop(const char* hop);
  void start_attempt(const std::shared_ptr<PendingInvoke>& call);
  void send_attempt(const std::shared_ptr<PendingInvoke>& call);
  void complete_attempt(const std::shared_ptr<PendingInvoke>& call,
                        Response response);

  SmockRuntime& runtime_;
  LookupService& lookup_;
  net::NodeId client_node_;
  std::string service_;
  planner::PlanRequest defaults_;
  bool bound_ = false;
  bool binding_ = false;
  AccessOutcome outcome_;
  std::vector<std::function<void(util::Status)>> waiters_;
  bool retry_ = false;
  RetryPolicy policy_;
  RetryTelemetry* telemetry_ = nullptr;
  util::Rng retry_rng_;
};

}  // namespace psf::runtime
