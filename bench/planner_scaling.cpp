// E11 — hierarchical planner scaling (EXPERIMENTS.md E11).
//
// Two gated sections, lettered like EXPERIMENTS.md E11's items 1 and 2
// (items 3 and 4 there are history):
//   A. 1000-node Waxman, mail world: hierarchical search must plan in
//      < 1 s wall (p50) — the tentpole gate. Also reports how few route
//      rows the lazy cache materialized out of the full O(V^2) table, the
//      cold plan (the first, which builds those rows; the p50 is warm) and
//      the process's peak RSS after the section, neither gated.
//   B. Optimality gap vs flat BnB where flat still completes (<= 32
//      nodes): hierarchical primary score within 5% of the optimum.
//
// Modes:
//   planner_scaling            full run, writes BENCH_planner_scaling.json
//   planner_scaling --smoke    reduced sizes for CI (tier-1 ctest target),
//                              writes BENCH_planner_scaling_smoke.json;
//                              section A shrinks to 256 nodes and reports
//                              without the sub-second gate.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "mail/mail_spec.hpp"
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

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- the mail-on-Waxman world shared by sections A and B -------------------

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
    const double rss_mb = peak_rss_mb();
    const bool gate_applicable = !smoke;
    const bool gate_passed = satisfiable && (smoke || p50 < 1.0);
    all_gates_passed = all_gates_passed && gate_passed;

    std::printf(
        "A: hierarchical mail plan, %zu-node Waxman: p50 %.3f s (%zu runs, "
        "cold %.3f s), %llu clusters (%llu pruned, %llu refined), %llu "
        "candidates, route rows %zu/%zu, peak RSS %.1f MB\n",
        n, p50, runs, wall.front(),
        static_cast<unsigned long long>(stats.clusters_total),
        static_cast<unsigned long long>(stats.clusters_pruned),
        static_cast<unsigned long long>(stats.clusters_refined),
        static_cast<unsigned long long>(stats.candidates_examined),
        world.network.route_rows_materialized(), world.network.node_count(),
        rss_mb);

    json.add("scale_nodes", static_cast<std::uint64_t>(n));
    json.add("scale_runs", static_cast<std::uint64_t>(runs));
    json.add("scale_p50_s", p50);
    json.add("scale_cold_s", wall.front());
    json.add("scale_peak_rss_mb", rss_mb);
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
