// detlint:ordered-output — readings feed the determinism check and reports.
#include "probes.hpp"

#include <algorithm>
#include <cstdio>

#include "core/scenarios.hpp"
#include "mail/client.hpp"
#include "mail/crypto_components.hpp"
#include "mail/view_server.hpp"

namespace psf::bench {

namespace {

constexpr const char* kService = "SecureMail";

void put(Readings& out, const std::string& name, double value) {
  out[name] = Reading{value, 0};
}

void put_percentile(Readings& out, const std::string& name,
                    std::vector<double> samples, double p) {
  if (auto r = percentile(std::move(samples), p)) out[name] = *r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::optional<Reading> percentile(std::vector<double> samples, double p) {
  const double beyond =
      static_cast<double>(samples.size()) * (1.0 - p / 100.0);
  if (samples.empty() || beyond < 10.0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return Reading{samples[lo] * (1.0 - frac) + samples[hi] * frac,
                 samples.size()};
}

bool ran_cold_path(const runtime::AccessOutcome& outcome) {
  return !outcome.cache_hit && !outcome.coalesced;
}

void trace_access(Tracer& tracer, const runtime::AccessOutcome& outcome,
                  std::uint32_t lane, double start_s, double end_s) {
  char args[96];
  std::snprintf(args, sizeof(args),
                "\"cache_hit\":%s,\"coalesced\":%s,\"candidates\":%llu",
                outcome.cache_hit ? "true" : "false",
                outcome.coalesced ? "true" : "false",
                static_cast<unsigned long long>(
                    outcome.search.candidates_examined));
  const std::uint64_t id =
      tracer.span(Domain::kSim, "access", lane, start_s, end_s, 0, args);
  double at = start_s;
  const auto child = [&](const char* name, sim::Duration d) {
    tracer.span(Domain::kSim, name, lane, at, at + d.seconds(), id);
    at += d.seconds();
  };
  child("access.lookup", outcome.costs.lookup);
  if (ran_cold_path(outcome)) {
    child("access.planning", outcome.costs.planning);
    child("access.deployment", outcome.costs.deployment);
  }
}

void trace_adaptation(Tracer& tracer,
                      const runtime::AdaptationController& controller) {
  for (const runtime::AdaptationEvent& e : controller.events()) {
    char args[96];
    std::snprintf(args, sizeof(args),
                  "\"deployment\":%zu,\"fell_back_to_full\":%s,"
                  "\"state_transfers\":%zu",
                  e.tracked_index, e.fell_back_to_full ? "true" : "false",
                  e.state_transfers);
    tracer.instant(std::string("adaptation.") +
                       runtime::adaptation_outcome_name(e.outcome),
                   e.at.seconds(), args);
  }
}

Readings probe_layers(core::Framework& fw,
                      const std::vector<const runtime::AccessOutcome*>& binds,
                      const runtime::AdaptationController* controller,
                      std::uint64_t ops) {
  Readings out;
  const double per_op = static_cast<double>(std::max<std::uint64_t>(ops, 1));

  // ---- net + smock ---------------------------------------------------------
  const runtime::RuntimeStats& rs = fw.runtime().stats();
  put(out, "net.messages", static_cast<double>(rs.messages_sent));
  put(out, "net.wire_bytes_per_op",
      static_cast<double>(rs.bytes_transferred) / per_op);
  put(out, "net.messages_dropped", static_cast<double>(rs.messages_dropped));
  put(out, "net.messages_unroutable",
      static_cast<double>(rs.messages_unroutable));
  put(out, "net.route_rows",
      static_cast<double>(fw.network().route_rows_materialized()));
  put(out, "runtime.smock.requests_delivered",
      static_cast<double>(rs.requests_delivered));
  put(out, "runtime.smock.invoke_timeouts",
      static_cast<double>(rs.invoke_timeouts));
  put(out, "runtime.deploy.installs", static_cast<double>(rs.installs));
  put(out, "runtime.deploy.code_cache_hits",
      static_cast<double>(rs.code_cache_hits));
  put(out, "runtime.adaptation.state_transfer_bytes",
      static_cast<double>(rs.state_transfer_bytes));

  // ---- lookup --------------------------------------------------------------
  const auto& proxy_cache = fw.lookup().proxy_cache_stats();
  put(out, "runtime.lookup.proxy_downloads",
      static_cast<double>(proxy_cache.downloads));
  put(out, "runtime.lookup.proxy_cache_hits",
      static_cast<double>(proxy_cache.cache_hits));

  // ---- per-bind costs and searches (cold binds the generator saw) ----------
  std::vector<double> lookup_ms;
  std::vector<double> candidates;
  std::vector<double> plan_wall_ms;
  std::vector<double> plan_sim_ms;
  std::vector<double> deploy_sim_ms;
  double pruned = 0.0, scored = 0.0, rejected = 0.0, wall_total_s = 0.0;
  for (const runtime::AccessOutcome* o : binds) {
    lookup_ms.push_back(o->costs.lookup.millis());
    if (!ran_cold_path(*o)) continue;
    const planner::SearchStats& s = o->search;
    candidates.push_back(static_cast<double>(s.candidates_examined));
    pruned += static_cast<double>(s.pruned_by_bound);
    scored += static_cast<double>(s.plans_scored);
    rejected += static_cast<double>(
        s.rejected_static + s.rejected_cycle + s.rejected_duplicate_view +
        s.rejected_condition + s.rejected_factor + s.rejected_compatibility +
        s.rejected_node_capacity + s.rejected_link_capacity +
        s.rejected_instance_capacity + s.rejected_unroutable +
        s.rejected_node_down);
    plan_wall_ms.push_back(o->costs.planning_wall_seconds * 1e3);
    wall_total_s += o->costs.planning_wall_seconds;
    plan_sim_ms.push_back(o->costs.planning.millis());
    deploy_sim_ms.push_back(o->costs.deployment.millis());
  }
  put_percentile(out, "runtime.lookup.sim_ms_p50", lookup_ms, 50.0);
  double candidates_total = 0.0;
  for (double c : candidates) candidates_total += c;
  put(out, "planner.candidates", candidates_total);
  put_percentile(out, "planner.candidates_p50", candidates, 50.0);
  put(out, "planner.pruned_by_bound", pruned);
  put(out, "planner.plans_scored", scored);
  put(out, "planner.rejected", rejected);
  put(out, "planner.wall_s_total", wall_total_s);
  put_percentile(out, "planner.wall_ms_p50", plan_wall_ms, 50.0);
  put_percentile(out, "planner.wall_ms_p99", plan_wall_ms, 99.0);
  put_percentile(out, "planner.sim_ms_p99", plan_sim_ms, 99.0);
  put_percentile(out, "runtime.deploy.sim_ms_p50", deploy_sim_ms, 50.0);

  // ---- plan cache ----------------------------------------------------------
  const runtime::PlanCacheTelemetry& pc = fw.server().access_telemetry();
  put(out, "runtime.plan_cache.hits", static_cast<double>(pc.hits));
  put(out, "runtime.plan_cache.misses", static_cast<double>(pc.misses));
  put(out, "runtime.plan_cache.coalesced", static_cast<double>(pc.coalesced));
  put(out, "runtime.plan_cache.hit_ratio",
      ratio(static_cast<double>(pc.hits),
            static_cast<double>(pc.hits + pc.misses + pc.coalesced)));
  put(out, "runtime.plan_cache.capacity_evictions",
      static_cast<double>(pc.capacity_evictions));
  put(out, "runtime.plan_cache.stale_epoch_evictions",
      static_cast<double>(pc.stale_epoch_evictions));
  // Every miss ran the planner's cold search (coalesced waiters did not).
  put(out, "planner.cold_plans", static_cast<double>(pc.misses));

  // ---- repair, retry, lease, adaptation ------------------------------------
  const runtime::RepairTelemetry& rt = fw.server().repair_telemetry();
  put(out, "planner.repairs", static_cast<double>(rt.repairs_attempted));
  put(out, "planner.repair_fallbacks", static_cast<double>(rt.full_fallbacks));
  put_percentile(out, "planner.repair_wall_ms_p50", rt.repair_wall_ms.samples(),
                 50.0);

  const runtime::RetryTelemetry& rty = fw.retry_telemetry();
  put(out, "runtime.retry.attempts", static_cast<double>(rty.attempts));
  put(out, "runtime.retry.retries", static_cast<double>(rty.retries));
  put(out, "runtime.retry.rebinds", static_cast<double>(rty.rebinds));
  put(out, "runtime.retry.timeouts", static_cast<double>(rty.timeouts));
  if (rty.attempts > 0) {
    put(out, "runtime.retry.useful_ratio",
        static_cast<double>(rty.successes) / static_cast<double>(rty.attempts));
  }

  std::uint64_t heartbeats_sent = 0, heartbeats_lost = 0;
  if (const runtime::LeaseManager* lease = fw.lease_manager()) {
    heartbeats_sent = lease->heartbeats_sent();
    heartbeats_lost = lease->heartbeats_lost();
    const util::SampleSet& detect = lease->detection_latency_ms();
    if (detect.count() > 0) {
      out["runtime.lease.detect_sim_ms"] =
          Reading{detect.mean(), detect.count()};
    }
  }
  put(out, "runtime.lease.heartbeats_sent",
      static_cast<double>(heartbeats_sent));
  put(out, "runtime.lease.heartbeats_lost",
      static_cast<double>(heartbeats_lost));

  runtime::AdaptationStats as;
  if (controller != nullptr) as = controller->stats();
  put(out, "runtime.adaptation.repairs_triggered",
      static_cast<double>(as.repairs_triggered));
  put(out, "runtime.adaptation.repaired", static_cast<double>(as.repaired));
  put(out, "runtime.adaptation.unsatisfiable",
      static_cast<double>(as.unsatisfiable));
  put(out, "runtime.adaptation.state_transfers",
      static_cast<double>(as.state_transfers));

  // ---- coherence (live replicas and directories) ---------------------------
  const core::CoherenceSummary co =
      core::collect_coherence_summary(fw.runtime());
  put(out, "coherence.flushes", static_cast<double>(co.flushes));
  put(out, "coherence.bytes_flushed", static_cast<double>(co.bytes_flushed));
  put(out, "coherence.updates_coalesced",
      static_cast<double>(co.updates_coalesced));
  put(out, "coherence.push_rpcs", static_cast<double>(co.push_rpcs));
  put(out, "coherence.blocked_on_flush_ms", co.blocked_on_flush_ms);
  put(out, "coherence.residual_pending",
      static_cast<double>(co.residual_pending));

  // ---- crypto + mail views (live components) -------------------------------
  std::uint64_t sealed = 0, unsealed = 0, mac_failures = 0;
  std::uint64_t view_local = 0, view_total = 0;
  for (runtime::RuntimeInstanceId id : fw.runtime().instance_ids()) {
    runtime::Component* c = fw.runtime().instance(id).component.get();
    const mail::TunnelStats* tunnel = nullptr;
    if (const auto* enc = dynamic_cast<mail::EncryptorComponent*>(c)) {
      tunnel = &enc->tunnel_stats();
    } else if (const auto* dec = dynamic_cast<mail::DecryptorComponent*>(c)) {
      tunnel = &dec->tunnel_stats();
    } else if (const auto* mc = dynamic_cast<mail::MailClientComponent*>(c)) {
      mac_failures += mc->client_stats().mac_failures;
    } else if (const auto* v =
                   dynamic_cast<mail::ViewMailServerComponent*>(c)) {
      const mail::ViewServerStats& vs = v->view_stats();
      view_local += vs.sends_local + vs.receives_local;
      view_total += vs.sends_local + vs.receives_local + vs.sends_forwarded +
                    vs.receives_forwarded;
    }
    if (tunnel != nullptr) {
      sealed += tunnel->requests_sealed;
      unsealed += tunnel->responses_unsealed;
      mac_failures += tunnel->mac_failures;
    }
  }
  put(out, "crypto.requests_sealed", static_cast<double>(sealed));
  put(out, "crypto.responses_unsealed", static_cast<double>(unsealed));
  put(out, "crypto.mac_failures", static_cast<double>(mac_failures));
  put(out, "mail.view_local_ratio",
      ratio(static_cast<double>(view_local), static_cast<double>(view_total)));
  return out;
}

double pooled_load_rps(core::Framework& fw) {
  double total = 0.0;
  for (const planner::ExistingInstance& inst :
       fw.server().existing_instances(kService)) {
    total += inst.current_load_rps;
  }
  return total;
}

}  // namespace psf::bench
