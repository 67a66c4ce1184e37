// detlint:ordered-output — results files are diffed against the baseline.
#include "report.hpp"

#include <cstdio>
#include <sstream>
#include <thread>

namespace psf::bench {

namespace {

// Every metric psfbench can print. `listed` marks the ones in
// BENCHMARK.json, which every workload reports; the rest are reported where
// the workload supports them (sample rule, or the layer ran at all).
const std::vector<MetricDef> kCatalog = {
    {"send_p50_ms", "e2e", "ms", "sim", true},
    {"send_p99_ms", "e2e", "ms", "sim", true},
    {"receive_p50_ms", "e2e", "ms", "sim", true},
    {"receive_p99_ms", "e2e", "ms", "sim", true},
    {"access_p50_s", "e2e", "s", "sim", true},
    {"access_p99_s", "e2e", "s", "sim", false},
    {"op_fail_ratio", "e2e", "fraction", "work", false},
    {"ops_per_wall_s", "e2e", "ops/s", "wall", true},
    {"setup_s", "e2e", "s", "wall", true},
    {"peak_rss_mb", "e2e", "MB", "host", true},

    {"sim.events", "sim", "count", "work", true},
    {"sim.events_per_op", "sim", "events/op", "work", true},
    {"sim.wall_ns_per_event", "sim", "ns", "wall", true},
    {"sim.pending_peak", "sim", "count", "work", true},
    {"net.messages", "net", "count", "work", true},
    {"net.wire_bytes_per_op", "net", "B/op", "work", true},
    {"net.messages_dropped", "net", "count", "work", true},
    {"net.messages_unroutable", "net", "count", "work", true},
    {"net.route_rows", "net", "count", "work", true},
    {"runtime.lookup.sim_ms_p50", "runtime.lookup", "ms", "sim", true},
    {"runtime.lookup.proxy_downloads", "runtime.lookup", "count", "work", true},
    {"runtime.lookup.proxy_cache_hits", "runtime.lookup", "count", "work",
     true},
    {"runtime.plan_cache.hits", "runtime.plan_cache", "count", "work", true},
    {"runtime.plan_cache.misses", "runtime.plan_cache", "count", "work", true},
    {"runtime.plan_cache.coalesced", "runtime.plan_cache", "count", "work",
     true},
    {"runtime.plan_cache.hit_ratio", "runtime.plan_cache", "ratio", "work",
     true},
    {"runtime.plan_cache.capacity_evictions", "runtime.plan_cache", "count",
     "work", true},
    {"runtime.plan_cache.stale_epoch_evictions", "runtime.plan_cache", "count",
     "work", true},
    {"planner.cold_plans", "planner", "count", "work", true},
    {"planner.candidates", "planner", "count", "work", true},
    {"planner.candidates_p50", "planner", "count", "work", false},
    {"planner.pruned_by_bound", "planner", "count", "work", true},
    {"planner.plans_scored", "planner", "count", "work", true},
    {"planner.rejected", "planner", "count", "work", true},
    {"planner.wall_ms_p50", "planner", "ms", "wall", false},
    {"planner.wall_ms_p99", "planner", "ms", "wall", false},
    {"planner.wall_s_total", "planner", "s", "wall", true},
    {"planner.sim_ms_p99", "planner", "ms", "sim", false},
    {"planner.repairs", "planner", "count", "work", true},
    {"planner.repair_fallbacks", "planner", "count", "work", true},
    {"planner.repair_wall_ms_p50", "planner", "ms", "wall", false},
    {"planner.replay_us_p50", "planner", "us", "wall", true},
    {"planner.replay_us_p99", "planner", "us", "wall", false},
    {"runtime.deploy.sim_ms_p50", "runtime.deploy", "ms", "sim", false},
    {"runtime.deploy.installs", "runtime.deploy", "count", "work", true},
    {"runtime.deploy.code_cache_hits", "runtime.deploy", "count", "work", true},
    {"runtime.smock.requests_delivered", "runtime.smock", "count", "work",
     true},
    {"runtime.smock.invoke_timeouts", "runtime.smock", "count", "work", true},
    {"runtime.retry.attempts", "runtime.retry", "count", "work", true},
    {"runtime.retry.retries", "runtime.retry", "count", "work", true},
    {"runtime.retry.rebinds", "runtime.retry", "count", "work", true},
    {"runtime.retry.timeouts", "runtime.retry", "count", "work", true},
    {"runtime.retry.useful_ratio", "runtime.retry", "ratio", "work", false},
    {"runtime.lease.heartbeats_sent", "runtime.lease", "count", "work", true},
    {"runtime.lease.heartbeats_lost", "runtime.lease", "count", "work", true},
    {"runtime.lease.detect_sim_ms", "runtime.lease", "ms", "sim", false},
    {"runtime.adaptation.repairs_triggered", "runtime.adaptation", "count",
     "work", true},
    {"runtime.adaptation.repaired", "runtime.adaptation", "count", "work",
     true},
    {"runtime.adaptation.unsatisfiable", "runtime.adaptation", "count", "work",
     true},
    {"runtime.adaptation.state_transfers", "runtime.adaptation", "count",
     "work", true},
    {"runtime.adaptation.state_transfer_bytes", "runtime.adaptation", "B",
     "work", true},
    {"coherence.flushes", "coherence", "count", "work", true},
    {"coherence.bytes_flushed", "coherence", "B", "work", true},
    {"coherence.updates_coalesced", "coherence", "count", "work", true},
    {"coherence.push_rpcs", "coherence", "count", "work", true},
    // Not listed: access_storm runs without propagation, so it reads 0 there
    // on every seed.
    {"coherence.blocked_on_flush_ms", "coherence", "ms", "sim", false},
    {"coherence.residual_pending", "coherence", "count", "work", true},
    {"crypto.requests_sealed", "crypto", "count", "work", true},
    {"crypto.responses_unsealed", "crypto", "count", "work", true},
    {"crypto.mac_failures", "crypto", "count", "work", true},
    {"crypto.seal_ns_per_kb", "crypto", "ns/KB", "wall", true},
    {"mail.view_local_ratio", "mail", "ratio", "work", true},
    {"bench.backlog_peak", "bench", "count", "work", true},
    {"bench.trace_overhead", "bench", "ratio", "wall", false},
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<MetricDef>& catalog() { return kCatalog; }

bool deterministic(const MetricDef& def) {
  const std::string kind = def.kind;
  return kind == "work" || kind == "sim";
}

std::string render_table(const RunSummary& summary) {
  std::ostringstream oss;
  char line[256];
  std::snprintf(line, sizeof(line),
                "psfbench %s seed=%llu reps=%zu trace=%d\n",
                summary.workload.c_str(),
                static_cast<unsigned long long>(summary.seed), summary.reps,
                summary.trace ? 1 : 0);
  oss << line;
  std::snprintf(line, sizeof(line), "%-42s %18s %-9s %-5s %8s %10s\n",
                "metric", "value", "unit", "kind", "n", "iqr");
  oss << line;
  for (const Result& r : summary.results) {
    std::snprintf(line, sizeof(line), "%-42s %18.6g %-9s %-5s %8llu %10.4g\n",
                  r.def->name, r.value, r.def->unit, r.def->kind,
                  static_cast<unsigned long long>(r.n), r.iqr);
    oss << line;
  }
  for (const std::string& v : summary.violations) {
    oss << "VIOLATION: " << v << "\n";
  }
  return oss.str();
}

bool write_results(const RunSummary& summary, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "{\"bench\":\"psfbench\",\"config\":{\"workload\":%s,"
               "\"seed\":%llu,\"seconds\":%d,\"trace\":%s,\"reps\":%zu,"
               "\"hardware_threads\":%u},\"correct\":%s,\"attempted\":%llu,"
               "\"failed\":%llu,\"metrics\":[",
               quote(summary.workload).c_str(),
               static_cast<unsigned long long>(summary.seed), summary.seconds,
               summary.trace ? "true" : "false", summary.reps,
               std::thread::hardware_concurrency(),
               summary.correct ? "true" : "false",
               static_cast<unsigned long long>(summary.attempted),
               static_cast<unsigned long long>(summary.failed));
  bool first = true;
  for (const Result& r : summary.results) {
    const bool wall = std::string(r.def->kind) == "wall";
    std::fprintf(out, "%s\n{\"layer\":%s,\"name\":%s,\"unit\":%s,"
                 "\"kind\":%s,",
                 first ? "" : ",", quote(r.def->layer).c_str(),
                 quote(r.def->name).c_str(), quote(r.def->unit).c_str(),
                 quote(r.def->kind).c_str());
    if (wall) {
      std::fprintf(out, "\"p50\":%s,\"iqr\":%s,", number(r.value).c_str(),
                   number(r.iqr).c_str());
    } else {
      std::fprintf(out, "\"value\":%s,", number(r.value).c_str());
    }
    std::fprintf(out, "\"n\":%llu}", static_cast<unsigned long long>(r.n));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

std::string result_line(const RunSummary& summary) {
  std::ostringstream oss;
  oss << "{\"correct\":" << (summary.correct ? "true" : "false")
      << ",\"attempted\":" << summary.attempted
      << ",\"failed\":" << summary.failed << ",\"metrics\":{";
  bool first = true;
  for (const Result& r : summary.results) {
    const bool e2e = std::string(r.def->layer) == "e2e";
    if (!r.def->listed || e2e == summary.trace) continue;
    oss << (first ? "" : ",") << quote(r.def->name) << ":{\"value\":"
        << number(r.value) << ",\"unit\":" << quote(r.def->unit) << "}";
    first = false;
  }
  oss << "}}";
  return oss.str();
}

}  // namespace psf::bench
