// E11 — hierarchical anytime planner scaling (EXPERIMENTS.md E11).
//
// Three gated sections, lettered like EXPERIMENTS.md E11's items 1, 2 and 4
// (item 3 there is history):
//   A. 1000-node Waxman, mail world: hierarchical search must plan in
//      < 1 s wall (p50) — the tentpole gate. Also reports how few route
//      rows the lazy cache materialized out of the full O(V^2) table.
//   B. Optimality gap vs flat BnB where flat still completes (<= 32
//      nodes): hierarchical primary score within 5% of the optimum.
//   D. Anytime contract, end to end through the Framework: a truncated
//      access returns a valid incumbent with deadline_hit; an epoch bump
//      discards stale improvement jobs (zero stale-plan binds); background
//      swaps drive the cached score monotonically down.
//
// Modes:
//   planner_scaling            full run, writes BENCH_planner_scaling.json
//   planner_scaling --smoke    reduced sizes for CI (tier-1 ctest target),
//                              writes BENCH_planner_scaling_smoke.json;
//                              section A shrinks to 256 nodes and reports
//                              without the sub-second gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "net/topology.hpp"
#include "planner/planner.hpp"

namespace {

using namespace psf;
using Clock = std::chrono::steady_clock;  // detlint:allow(DET004 bench measures wall-clock)

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// ---- the mail-on-Waxman world shared by sections A, B and D ----------------

net::Network mail_waxman(std::size_t n, std::uint64_t seed) {
  net::WaxmanParams params;
  params.num_nodes = n;
  util::Rng rng(seed);
  net::Network network = net::generate_waxman(params, rng);
  for (net::NodeId id : network.all_nodes()) {
    network.node(id).credentials.set(
        "trust", static_cast<std::int64_t>(2 + id.value % 3));
    network.node(id).credentials.set("secure", true);
  }
  network.node(net::NodeId{0}).credentials.set("trust", std::int64_t{5});
  for (net::LinkId id : network.all_links()) {
    network.link(id).credentials.set("secure", (id.value % 3) != 0);
  }
  return network;
}

struct MailWorld {
  net::Network network;
  spec::ServiceSpec spec;
  std::shared_ptr<planner::CredentialMapTranslator> translator;
  std::unique_ptr<planner::EnvironmentView> env;
  std::unique_ptr<planner::Planner> planner;
  std::vector<planner::ExistingInstance> existing;

  explicit MailWorld(std::size_t n, std::uint64_t seed = 2026) {
    network = mail_waxman(n, seed);
    spec = mail::mail_service_spec();
    translator = mail::mail_translator();
    env = std::make_unique<planner::EnvironmentView>(network, *translator);
    planner = std::make_unique<planner::Planner>(spec, *env);

    planner::ExistingInstance home;
    home.runtime_id = 1;
    home.component = spec.find_component("MailServer");
    home.node = net::NodeId{0};
    home.effective["ServerInterface"]["Confidentiality"] =
        spec::PropertyValue::boolean(true);
    home.effective["ServerInterface"]["TrustLevel"] =
        spec::PropertyValue::integer(5);
    home.downstream_latency_s = 1e-4;
    existing.push_back(home);
  }

  planner::PlanRequest request() const {
    planner::PlanRequest req;
    req.interface_name = "ClientInterface";
    req.required_properties.emplace_back("TrustLevel",
                                         spec::PropertyValue::integer(2));
    req.client_node =
        net::NodeId{static_cast<std::uint32_t>(network.node_count() - 1)};
    req.max_depth = 4;
    return req;
  }
};

int run_bench(bool smoke) {
  psf::bench::JsonResult json(smoke ? "planner_scaling_smoke"
                                    : "planner_scaling");
  json.add("smoke", smoke);
  json.add("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  bool all_gates_passed = true;

  // ---- A: hierarchical search at scale -------------------------------------
  {
    const std::size_t n = smoke ? 256 : 1000;
    const std::size_t runs = smoke ? 3 : 5;
    MailWorld world(n);
    const planner::PlanRequest request = world.request();

    std::vector<double> wall;
    planner::SearchStats stats;
    bool satisfiable = true;
    for (std::size_t r = 0; r < runs; ++r) {
      // Fresh planner state per run is unnecessary (the planner is
      // stateless), but route rows persist — which is the production shape:
      // the first plan faults rows in, later plans ride them.
      const auto start = Clock::now();
      auto plan = world.planner->plan(request, world.existing, &stats);
      wall.push_back(seconds_since(start));
      satisfiable = satisfiable && plan.has_value();
    }
    const double p50 = median(wall);
    const bool gate_applicable = !smoke;
    const bool gate_passed = satisfiable && (smoke || p50 < 1.0);
    all_gates_passed = all_gates_passed && gate_passed;

    std::printf(
        "A: hierarchical mail plan, %zu-node Waxman: p50 %.3f s (%zu runs), "
        "%llu clusters (%llu pruned, %llu refined), %llu candidates, "
        "route rows %zu/%zu\n",
        n, p50, runs, static_cast<unsigned long long>(stats.clusters_total),
        static_cast<unsigned long long>(stats.clusters_pruned),
        static_cast<unsigned long long>(stats.clusters_refined),
        static_cast<unsigned long long>(stats.candidates_examined),
        world.network.route_rows_materialized(), world.network.node_count());

    json.add("scale_nodes", static_cast<std::uint64_t>(n));
    json.add("scale_runs", static_cast<std::uint64_t>(runs));
    json.add("scale_p50_s", p50);
    json.add("scale_satisfiable", satisfiable);
    json.add("scale_used_hierarchy", stats.used_hierarchy);
    json.add("scale_clusters_total", stats.clusters_total);
    json.add("scale_clusters_pruned", stats.clusters_pruned);
    json.add("scale_clusters_refined", stats.clusters_refined);
    json.add("scale_candidates", stats.candidates_examined);
    json.add("scale_route_rows",
             static_cast<std::uint64_t>(
                 world.network.route_rows_materialized()));
    json.add("scale_gate_s", 1.0);
    json.add("scale_gate_skipped", !gate_applicable);
    json.add("scale_gate_passed", gate_passed);
    if (!gate_passed) {
      std::fprintf(stderr, "planner_scaling: %zu-node p50 %.3f s >= 1 s gate\n",
                   n, p50);
    }
  }

  // ---- B: optimality gap vs flat BnB ---------------------------------------
  {
    const std::vector<std::size_t> sizes =
        smoke ? std::vector<std::size_t>{12, 16}
              : std::vector<std::size_t>{12, 16, 24, 32};
    double worst_gap = 0.0;
    bool comparable = true;
    for (const std::size_t n : sizes) {
      MailWorld world(n);
      planner::PlanRequest flat = world.request();
      flat.search_mode = planner::SearchMode::kFlat;
      planner::PlanRequest hier = world.request();
      hier.search_mode = planner::SearchMode::kHierarchical;

      auto optimal = world.planner->plan(flat, world.existing);
      auto heuristic = world.planner->plan(hier, world.existing);
      if (!optimal.has_value() || !heuristic.has_value()) {
        comparable = comparable &&
                     optimal.has_value() == heuristic.has_value();
        continue;
      }
      const double a = optimal->metrics.expected_latency_s;
      const double b = heuristic->metrics.expected_latency_s;
      const double gap = a > 0.0 ? (b - a) / a : 0.0;
      worst_gap = std::max(worst_gap, gap);
      std::printf("B: n=%zu flat %.6f s vs hierarchical %.6f s (gap %.2f%%)\n",
                  n, a, b, 100.0 * gap);
    }
    const bool gate_passed = comparable && worst_gap <= 0.05;
    all_gates_passed = all_gates_passed && gate_passed;
    json.add("gap_sizes", static_cast<std::uint64_t>(sizes.size()));
    json.add("gap_worst", worst_gap);
    json.add("gap_gate", 0.05);
    json.add("gap_gate_passed", gate_passed);
    if (!gate_passed) {
      std::fprintf(stderr, "planner_scaling: worst gap %.2f%% above 5%% gate\n",
                   100.0 * worst_gap);
    }
  }

  // ---- D: anytime contract through the runtime ------------------------------
  {
    const std::size_t n = smoke ? 48 : 200;
    net::Network network = mail_waxman(n, 41);
    core::Framework fw(std::move(network));
    auto config = std::make_shared<mail::MailServiceConfig>();
    if (auto st = mail::register_mail_factories(fw.runtime().factories(),
                                                config);
        !st.is_ok()) {
      std::fprintf(stderr, "planner_scaling: %s\n", st.to_string().c_str());
      return 1;
    }
    auto registration = mail::mail_registration(net::NodeId{0});
    registration.anytime_deadline_s = 1e-9;  // truncate at first incumbent
    if (auto st =
            fw.register_service(std::move(registration), mail::mail_translator());
        !st.is_ok()) {
      std::fprintf(stderr, "planner_scaling: %s\n", st.to_string().c_str());
      return 1;
    }

    planner::PlanRequest defaults;
    defaults.interface_name = "ClientInterface";
    defaults.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(2));
    defaults.request_rate_rps = 20.0;
    defaults.client_node = net::NodeId{static_cast<std::uint32_t>(n - 1)};

    bool ok = true;
    const auto access = [&](runtime::AccessOutcome& out) {
      bool done = false;
      fw.server().request_access(
          "SecureMail", defaults,
          [&](util::Expected<runtime::AccessOutcome> result) {
            if (result.has_value()) {
              out = std::move(result).value();
            } else {
              std::fprintf(stderr, "planner_scaling: access failed: %s\n",
                           result.status().to_string().c_str());
              ok = false;
            }
            done = true;
          });
      fw.run();
      ok = ok && done;
    };
    const auto drain = [&] {
      bool drained = false;
      fw.server().drain_improvements([&] { drained = true; });
      fw.run();
      ok = ok && drained;
    };

    // Truncated access #1, then an epoch bump invalidates its entry and its
    // queued improvement before the improver runs.
    runtime::AccessOutcome first;
    access(first);
    const bool incumbent_valid = ok && first.search.deadline_hit;
    fw.server().invalidate_cached_plans();
    drain();

    // Access #2 must plan cold (zero stale binds), enqueue its own job, and
    // this time the improver runs to completion and may hot-swap.
    runtime::AccessOutcome second;
    access(second);
    const bool no_stale_bind = ok && !second.cache_hit;
    drain();

    // Access #3 rides the (possibly swapped) cache entry.
    runtime::AccessOutcome third;
    access(third);

    const runtime::AnytimeTelemetry& t = fw.server().anytime_telemetry();
    const double second_score = planner::plan_primary_score(
        planner::Objective::kMinLatency, second.plan.metrics);
    const double third_score = planner::plan_primary_score(
        planner::Objective::kMinLatency, third.plan.metrics);
    bool monotonic = third_score <= second_score + 1e-12;
    for (std::size_t i = 1; i < t.swap_primary_scores.size(); ++i) {
      monotonic = monotonic &&
                  t.swap_primary_scores[i] <= t.swap_primary_scores[i - 1];
    }

    const bool gate_passed = ok && incumbent_valid && no_stale_bind &&
                             t.discarded_stale >= 1 &&
                             t.nonmonotonic_refused == 0 && monotonic &&
                             third.cache_hit;
    all_gates_passed = all_gates_passed && gate_passed;

    std::printf(
        "D: anytime on %zu nodes: truncated %.6f s -> served %.6f s, "
        "%llu jobs, %llu swaps, %llu stale-discarded, %llu no-better\n",
        n, second_score, third_score,
        static_cast<unsigned long long>(t.jobs_enqueued),
        static_cast<unsigned long long>(t.improved_swaps),
        static_cast<unsigned long long>(t.discarded_stale),
        static_cast<unsigned long long>(t.no_better));

    json.add("anytime_nodes", static_cast<std::uint64_t>(n));
    json.add("anytime_deadline_hit", incumbent_valid);
    json.add("anytime_jobs_enqueued", t.jobs_enqueued);
    json.add("anytime_improved_swaps", t.improved_swaps);
    json.add("anytime_discarded_stale", t.discarded_stale);
    json.add("anytime_no_better", t.no_better);
    json.add("anytime_nonmonotonic_refused", t.nonmonotonic_refused);
    json.add("anytime_truncated_score_s", second_score);
    json.add("anytime_served_score_s", third_score);
    json.add("anytime_zero_stale_binds", no_stale_bind);
    json.add("anytime_gate_passed", gate_passed);
    if (!gate_passed) {
      std::fprintf(stderr, "planner_scaling: anytime contract gate failed\n");
    }
  }

  json.add("all_gates_passed", all_gates_passed);
  json.write();
  return all_gates_passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: planner_scaling [--smoke]\n");
      return 2;
    }
  }
  return run_bench(smoke);
}
