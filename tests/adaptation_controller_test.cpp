// AdaptationController: the closed monitor -> repair -> live-cutover loop.
// Violations are classified against tracked plans, Planner::repair pins
// survivors and re-searches the affected neighborhood, and the runtime
// migrates component state sync-then-cutover with a drain window for
// stragglers. Also covers the plan-cache guarantee that a stale handle never
// binds a migrated-away instance, orphan collection, repair-vs-cold
// constraint equivalence, and a retired component outliving the replies
// still in flight toward it.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "planner/planner.hpp"
#include "planner/validate.hpp"
#include "runtime/adaptation.hpp"

namespace psf {
namespace {

struct AdaptationControllerFixture : public ::testing::Test {
  void SetUp() override {
    net::Network network = core::case_study_network(&sites);
    core::FrameworkOptions options;
    options.lookup_node = sites.new_york[0];
    options.server_node = sites.new_york[0];
    fw = std::make_unique<core::Framework>(std::move(network), options);
    config = std::make_shared<mail::MailServiceConfig>();
    ASSERT_TRUE(
        mail::register_mail_factories(fw->runtime().factories(), config)
            .is_ok());
    auto st = fw->register_service(mail::mail_registration(sites.mail_home),
                                   mail::mail_translator());
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    runtime::AdaptationParams params;
    params.drain = sim::Duration::from_millis(200);
    ctl = std::make_unique<runtime::AdaptationController>(
        fw->runtime(), fw->server(), fw->monitor(), "SecureMail", params);
  }

  planner::PlanRequest sd_request() {
    planner::PlanRequest request;
    request.interface_name = "ClientInterface";
    request.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(4));
    request.client_node = sites.sd_client;
    request.request_rate_rps = 50.0;
    return request;
  }

  runtime::AccessOutcome bind(const planner::PlanRequest& request) {
    auto proxy = fw->make_proxy(request.client_node, "SecureMail", request);
    util::Status status = util::internal_error("");
    bool done = false;
    proxy->bind([&](util::Status st) {
      status = st;
      done = true;
    });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(300));
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return proxy->outcome();
  }

  // Sends one sensitivity-2 message from/to `user` through `entry`.
  void send_mail(runtime::RuntimeInstanceId entry, const std::string& user,
                 std::uint64_t id, net::NodeId from = net::NodeId{}) {
    if (!from.valid()) from = sites.sd_client;
    auto body = std::make_shared<mail::SendBody>();
    body->message.id = id;
    body->message.from = user;
    body->message.to = user;
    body->message.sensitivity = 2;
    body->message.plaintext = {'h', 'i'};
    runtime::Request send;
    send.op = mail::ops::kSend;
    send.body = body;
    send.wire_bytes = mail::send_wire_bytes(body->message);
    bool done = false;
    fw->runtime().invoke_from_node(from, entry, std::move(send),
                                   [&done](runtime::Response r) {
                                     EXPECT_TRUE(r.ok) << r.error;
                                     done = true;
                                   });
    ASSERT_TRUE(fw->run_until_condition([&done]() { return done; },
                                        sim::Duration::from_seconds(30)));
  }

  std::size_t receive_count(runtime::RuntimeInstanceId entry,
                            const std::string& user) {
    auto body = std::make_shared<mail::ReceiveBody>();
    body->user = user;
    runtime::Request recv;
    recv.op = mail::ops::kReceive;
    recv.body = body;
    recv.wire_bytes = 256;
    bool done = false;
    std::size_t got = 0;
    fw->runtime().invoke_from_node(
        sites.sd_client, entry, std::move(recv), [&](runtime::Response r) {
          EXPECT_TRUE(r.ok) << r.error;
          const auto* result = runtime::body_as<mail::ReceiveResultBody>(r);
          if (result != nullptr) got = result->messages.size();
          done = true;
        });
    EXPECT_TRUE(fw->run_until_condition([&done]() { return done; },
                                        sim::Duration::from_seconds(30)));
    return got;
  }

  std::set<std::string> live_components(net::NodeId node) {
    std::set<std::string> out;
    for (auto id : fw->runtime().instances_on(node)) {
      out.insert(fw->runtime().instance(id).def->name);
    }
    return out;
  }

  // The runtime id + node of the tracked plan's ViewMailServer placement.
  std::pair<runtime::RuntimeInstanceId, net::NodeId> tracked_view(
      std::size_t index) {
    const auto& outcome = ctl->current_outcome(index);
    for (std::size_t i = 0; i < outcome.plan.placements.size(); ++i) {
      if (outcome.plan.placements[i].component->name == "ViewMailServer") {
        return {outcome.instances[i], outcome.plan.placements[i].node};
      }
    }
    return {0, net::NodeId{}};
  }

  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
  std::unique_ptr<runtime::AdaptationController> ctl;
};

TEST_F(AdaptationControllerFixture, IrrelevantChangeIsStillValid) {
  auto request = sd_request();
  auto outcome = bind(request);
  ctl->track(outcome, request);

  fw->monitor().set_node_credential(sites.seattle[1], "trust",
                                    std::int64_t{3});
  fw->run_for(sim::Duration::from_seconds(5));

  ASSERT_FALSE(ctl->events().empty());
  EXPECT_EQ(ctl->events().back().outcome,
            runtime::AdaptationEvent::Outcome::kStillValid);
  EXPECT_EQ(ctl->stats().repairs_triggered, 0u);
  EXPECT_GE(ctl->stats().events_observed, 1u);
}

TEST_F(AdaptationControllerFixture, CapacitySqueezeMigratesViewWithState) {
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const runtime::RuntimeInstanceId entry = outcome.entry;
  const auto [old_view, old_node] = tracked_view(index);
  ASSERT_NE(old_view, 0u);
  ASSERT_EQ(old_node, sites.sd_client);  // trust-4 client: local warm view

  // Warm the view so the migration has observable state to carry.
  config->keys->provision_user("sam", mail::kMaxSensitivity);
  send_mail(entry, "sam", 1);

  // Flash crowd on the client machine: capacity drops to where the entry
  // still fits but the co-located view does not. The controller must move
  // the view off-node and carry its cache along.
  fw->monitor().set_node_capacity(sites.sd_client, 3.5e3);
  fw->run_for(sim::Duration::from_seconds(60));

  bool repaired = false;
  for (const auto& event : ctl->events()) {
    if (event.outcome == runtime::AdaptationEvent::Outcome::kRepaired &&
        event.tracked_index == index) {
      repaired = true;
      EXPECT_GE(event.state_transfers, 1u) << event.detail;
    }
  }
  ASSERT_TRUE(repaired);
  EXPECT_EQ(ctl->stats().repaired, 1u);
  EXPECT_GE(ctl->stats().state_transfers, 1u);
  EXPECT_GT(fw->runtime().stats().state_transfer_bytes, 0u);

  const auto [new_view, new_node] = tracked_view(index);
  ASSERT_NE(new_view, 0u);
  EXPECT_NE(new_view, old_view);
  EXPECT_NE(new_node, sites.sd_client);

  // Past the drain window the replaced view is gone; the grafted entry
  // serves the warm cache from the new placement.
  fw->run_for(sim::Duration::from_seconds(1));
  EXPECT_FALSE(fw->runtime().exists(old_view));
  EXPECT_TRUE(fw->runtime().exists(entry));
  EXPECT_GE(receive_count(entry, "sam"), 1u)
      << "migrated view lost its warm state";

  // Repair telemetry: the incremental path ran without full fallback.
  EXPECT_GE(fw->server().repair_telemetry().repairs_succeeded, 1u);
  EXPECT_EQ(fw->server().repair_telemetry().full_fallbacks, 0u);
}

TEST_F(AdaptationControllerFixture, StaleHandleNeverBindsMigratedAwayView) {
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const auto [old_view, old_node] = tracked_view(index);
  ASSERT_NE(old_view, 0u);

  fw->monitor().set_node_capacity(sites.sd_client, 3.5e3);
  fw->run_for(sim::Duration::from_seconds(60));
  ASSERT_GE(ctl->stats().repaired, 1u);

  // The retired view must be out of the plan cache and reuse pool the
  // moment cutover completes — a second client binding the same fingerprint
  // must get a fully live chain that never references it.
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    EXPECT_NE(inst.runtime_id, old_view);
  }
  auto later = bind(sd_request());
  for (auto id : later.instances) {
    EXPECT_NE(id, old_view);
    EXPECT_TRUE(fw->runtime().exists(id));
  }
}

TEST_F(AdaptationControllerFixture, NodeDeathAfterMigrationRepairsAgain) {
  // sd-0 is San Diego's only WAN gateway — killing it would legitimately
  // sever the site. Cap its CPU below the view's footprint up front so the
  // first repair migrates the view to sd-1, a host that CAN die repairably.
  fw->monitor().set_node_capacity(sites.san_diego[0], 2.5e3);
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const runtime::RuntimeInstanceId entry = outcome.entry;

  // First repair: squeeze pushes the view off the client node; the only
  // node with both trust 4 and room for it is sd-1.
  fw->monitor().set_node_capacity(sites.sd_client, 3.5e3);
  fw->run_for(sim::Duration::from_seconds(60));
  ASSERT_EQ(ctl->stats().repaired, 1u);
  const auto [view_after_squeeze, host] = tracked_view(index);
  ASSERT_NE(view_after_squeeze, 0u);
  ASSERT_EQ(host, sites.san_diego[1]);

  // Second repair: the migrated view's host dies outright. No state to
  // transfer (the source is gone) — the chain is rebuilt from survivors,
  // with the replacement placements landing wherever trust and capacity
  // still allow (New York, across the surviving gateway).
  const std::uint64_t transfers_before = ctl->stats().state_transfers;
  fw->fail_node(host);
  fw->run_for(sim::Duration::from_seconds(60));

  ASSERT_EQ(ctl->stats().repaired, 2u)
      << (ctl->events().empty() ? "no events" : ctl->events().back().detail);
  EXPECT_EQ(ctl->stats().state_transfers, transfers_before);
  const auto& current = ctl->current_outcome(index);
  for (std::size_t i = 0; i < current.plan.placements.size(); ++i) {
    EXPECT_NE(current.plan.placements[i].node, host);
    EXPECT_TRUE(fw->runtime().exists(current.instances[i]));
  }

  // The original entry still answers through the twice-grafted chain.
  config->keys->provision_user("sam", mail::kMaxSensitivity);
  send_mail(entry, "sam", 7);
}

TEST_F(AdaptationControllerFixture, RollingDrainMovesDeploymentOffNode) {
  auto request = sd_request();
  auto outcome = bind(request);
  const std::size_t index = ctl->track(outcome, request);
  const runtime::RuntimeInstanceId entry = outcome.entry;
  const auto [old_view, old_node] = tracked_view(index);
  ASSERT_EQ(old_node, sites.sd_client);

  // Maintenance drain: the node stays up, but placement must treat it as
  // dead. The pinned entry is the one component allowed to remain (it IS
  // the client).
  ctl->drain_node(sites.sd_client);
  fw->run_for(sim::Duration::from_seconds(60));

  EXPECT_TRUE(ctl->draining(sites.sd_client));
  EXPECT_EQ(ctl->stats().drains_requested, 1u);
  ASSERT_GE(ctl->stats().repaired, 1u);
  const auto [new_view, new_node] = tracked_view(index);
  ASSERT_NE(new_view, 0u);
  EXPECT_NE(new_node, sites.sd_client);
  // Live migration, not a cold rebuild: the drain scenario's whole point.
  EXPECT_GE(ctl->stats().state_transfers, 1u);

  fw->run_for(sim::Duration::from_seconds(1));
  EXPECT_FALSE(fw->runtime().exists(old_view));
  EXPECT_TRUE(fw->runtime().exists(entry));

  // Maintenance over: the node is placeable again and the current plan is
  // already valid, so nothing churns.
  ctl->undrain_node(sites.sd_client);
  const std::uint64_t repaired_before = ctl->stats().repaired;
  ctl->check_now();
  EXPECT_EQ(ctl->stats().repaired, repaired_before);
  EXPECT_EQ(ctl->events().back().outcome,
            runtime::AdaptationEvent::Outcome::kStillValid);
}

TEST_F(AdaptationControllerFixture, SiteTrustLossIsUnsatisfiable) {
  auto request = sd_request();
  auto outcome = bind(request);
  ctl->track(outcome, request);

  for (net::NodeId n : sites.san_diego) {
    fw->monitor().set_node_credential(n, "trust", std::int64_t{2});
  }
  fw->run_for(sim::Duration::from_seconds(30));

  bool unsatisfiable_seen = false;
  for (const auto& event : ctl->events()) {
    if (event.outcome == runtime::AdaptationEvent::Outcome::kUnsatisfiable) {
      unsatisfiable_seen = true;
      // The restricted repair could not fix a whole-site trust drop; the
      // full-replan fallback ran and failed too.
      EXPECT_TRUE(event.fell_back_to_full) << event.detail;
    }
  }
  EXPECT_TRUE(unsatisfiable_seen);
  EXPECT_EQ(ctl->stats().repaired, 0u);
}

TEST_F(AdaptationControllerFixture, OrphanedTunnelIsCollected) {
  // An unpinned client (a batch job that may run anywhere in the branch)
  // lets the repair move off the degraded node entirely, leaving the old
  // chain unreachable — the controller must retire it.
  auto request = sd_request();
  request.pin_entry_to_client = false;
  auto outcome = bind(request);
  ctl->track(outcome, request);

  ASSERT_TRUE(live_components(sites.sd_client).count("ViewMailServer"));
  const std::size_t before = fw->runtime().instance_count();

  // sd-2 loses the company's trust: every old placement there is invalid,
  // and nothing trust-4 may return to it. The new chain lands on the other
  // San Diego nodes.
  fw->monitor().set_node_credential(sites.sd_client, "trust",
                                    std::int64_t{3});
  fw->run_for(sim::Duration::from_seconds(60));
  ASSERT_EQ(ctl->stats().repaired, 1u)
      << (ctl->events().empty() ? "no events" : ctl->events().back().detail);
  std::size_t repaired_events = 0;
  for (const auto& event : ctl->events()) {
    if (event.outcome != runtime::AdaptationEvent::Outcome::kRepaired) {
      continue;
    }
    ++repaired_events;
    EXPECT_EQ(event.detail, "property-drift@sd-2");
  }
  EXPECT_EQ(repaired_events, 1u);

  // The old view and tunnel on the degraded node are gone (the preserved
  // entry MailClient is grafted onto the new chain and stays).
  EXPECT_FALSE(live_components(sites.sd_client).count("ViewMailServer"));
  EXPECT_FALSE(live_components(sites.sd_client).count("Encryptor"));
  // A fresh chain exists elsewhere in San Diego.
  bool new_view = false;
  for (net::NodeId n : sites.san_diego) {
    if (n == sites.sd_client) continue;
    new_view |= live_components(n).count("ViewMailServer") != 0;
  }
  EXPECT_TRUE(new_view);
  // No instance leak: old chain collected as the new one arrived.
  EXPECT_LE(fw->runtime().instance_count(), before + 2);
}

TEST_F(AdaptationControllerFixture,
       RepairSatisfiesColdPlanConstraintsDeterministically) {
  auto request = sd_request();
  auto outcome = bind(request);

  // Fault: the client machine shrinks below the co-located view's footprint,
  // then the environment view is refreshed so both planner paths see the
  // post-fault world.
  fw->monitor().set_node_capacity(sites.sd_client, 3.5e3);
  ASSERT_TRUE(fw->server().refresh_environment("SecureMail").is_ok());
  const spec::ServiceSpec* spec = fw->server().service_spec("SecureMail");
  const planner::EnvironmentView* env = fw->server().environment("SecureMail");
  ASSERT_NE(spec, nullptr);
  ASSERT_NE(env, nullptr);
  planner::Planner planner(*spec, *env);

  std::vector<planner::RepairViolation> violations(1);
  violations[0].kind = planner::RepairViolation::Kind::kLoadOverCapacity;
  violations[0].node = sites.sd_client;
  const auto& pool = fw->server().existing_instances("SecureMail");

  planner::RepairOutcome ro;
  auto repaired = planner.repair(request, outcome.plan, violations, pool, &ro);
  ASSERT_TRUE(repaired.has_value()) << repaired.status().to_string();

  // The incremental result satisfies exactly the constraints a cold plan
  // must: the full validator accepts it against the post-fault environment.
  EXPECT_TRUE(
      planner::validate_plan(*spec, *env, request, *repaired, pool).ok())
      << planner::validate_plan(*spec, *env, request, *repaired, pool)
             .to_string();
  auto cold = planner.plan(request, pool);
  ASSERT_TRUE(cold.has_value()) << cold.status().to_string();
  EXPECT_TRUE(planner::validate_plan(*spec, *env, request, *cold, pool).ok());

  // Repair stayed local: the violating node left the candidate set, some
  // placements broke, the rest were pinned, and no fallback was needed.
  EXPECT_FALSE(ro.fell_back_to_full);
  EXPECT_GE(ro.broken_placements, 1u);
  EXPECT_EQ(ro.surviving_placements + ro.broken_placements,
            outcome.plan.placements.size());
  for (net::NodeId n : ro.candidate_nodes) EXPECT_NE(n, sites.sd_client);
  // Only the pinned entry may remain on the squeezed node.
  for (const auto& p : repaired->placements) {
    if (p.node == sites.sd_client) {
      EXPECT_EQ(p.component->name, "MailClient");
    }
  }

  // Bit-identical under a fixed environment: a second repair with the same
  // inputs renders the same plan, byte for byte.
  planner::RepairOutcome ro2;
  auto repaired2 =
      planner.repair(request, outcome.plan, violations, pool, &ro2);
  ASSERT_TRUE(repaired2.has_value());
  EXPECT_EQ(repaired->to_string(fw->network()),
            repaired2->to_string(fw->network()));
  EXPECT_EQ(ro.candidate_nodes, ro2.candidate_nodes);
}

TEST_F(AdaptationControllerFixture, RetiredEncryptorOutlivesInFlightReply) {
  // An Encryptor retired by a drain shorter than its tunnel round trip: the
  // sealed reply is still crossing the slow WAN when the drain window
  // closes and the instance is uninstalled. The reply's continuation runs
  // inside the component, so the component must live until it has landed.
  const auto wan =
      fw->network().link_between(sites.san_diego[0], sites.new_york[0]);
  ASSERT_TRUE(wan.has_value());
  fw->monitor().set_link_latency(*wan, sim::Duration::from_millis(1500));

  auto request = sd_request();
  auto outcome = bind(request);
  ctl->track(outcome, request);
  ASSERT_TRUE(live_components(sites.sd_client).count("Encryptor"));
  config->keys->provision_user("sam", mail::kMaxSensitivity);

  // High-sensitivity receives always cross the tunnel to the home. Keep
  // them flowing every 100 ms across the drain, cutover and retirement.
  constexpr int kReceives = 100;
  const runtime::RuntimeInstanceId entry = outcome.entry;
  int completed = 0;
  int ok = 0;
  const auto receive = [&] {
    auto body = std::make_shared<mail::ReceiveBody>();
    body->user = "sam";
    body->include_high_sensitivity = true;
    runtime::Request recv;
    recv.op = mail::ops::kReceive;
    recv.body = body;
    recv.wire_bytes = 256;
    recv.principal = "sam";
    fw->runtime().invoke_from_node(sites.sd_client, entry, std::move(recv),
                                   [&completed, &ok](runtime::Response r) {
                                     ++completed;
                                     if (r.ok) ++ok;
                                   });
  };
  for (int i = 0; i < kReceives; ++i) {
    fw->simulator().schedule(sim::Duration::from_millis(100 * i), receive);
  }
  fw->simulator().schedule(sim::Duration::from_millis(500),
                           [this] { ctl->drain_node(sites.sd_client); });
  ASSERT_TRUE(fw->run_until_condition(
      [&completed] { return completed == kReceives; },
      sim::Duration::from_seconds(120)));

  // The tunnel moved off the drained node, and the replies that were in
  // flight through the retired Encryptor were unsealed and delivered.
  ASSERT_GE(ctl->stats().repaired, 1u);
  EXPECT_FALSE(live_components(sites.sd_client).count("Encryptor"));
  EXPECT_GT(ok, 0);
}

TEST_F(AdaptationControllerFixture, AccessArrivingDuringRepairRidesIt) {
  // A client rebinding while the controller's repair of the same request is
  // in flight must ride the repair, not plan cold beside it: it attaches to
  // the repair's flight and gets the repaired instances, and the repair's
  // outcome is what the cache serves next.
  auto request = sd_request();
  auto outcome = bind(request);
  fw->server().invalidate_cached_plans();
  const std::uint64_t misses = fw->server().access_telemetry().misses;

  std::vector<planner::RepairViolation> violations(1);
  violations[0].kind = planner::RepairViolation::Kind::kNodeDeath;
  violations[0].node = sites.seattle[1];
  util::Expected<runtime::AccessOutcome> repaired =
      util::internal_error("incomplete");
  util::Expected<runtime::AccessOutcome> rider =
      util::internal_error("incomplete");
  std::size_t finished = 0;
  fw->server().request_repair(
      "SecureMail", request, outcome.plan, violations,
      [&](util::Expected<runtime::AccessOutcome> r) {
        repaired = std::move(r);
        ++finished;
      });
  // No simulated time has passed: the repair is still planning/deploying.
  fw->server().request_access("SecureMail", request,
                              [&](util::Expected<runtime::AccessOutcome> r) {
                                rider = std::move(r);
                                ++finished;
                              });
  ASSERT_TRUE(fw->run_until_condition([&finished]() { return finished == 2; },
                                      sim::Duration::from_seconds(60)));
  ASSERT_TRUE(repaired.has_value()) << repaired.status().to_string();
  ASSERT_TRUE(rider.has_value()) << rider.status().to_string();
  EXPECT_TRUE(rider->coalesced);
  EXPECT_FALSE(rider->cache_hit);
  EXPECT_EQ(rider->instances, repaired->instances);
  EXPECT_EQ(fw->server().access_telemetry().misses, misses);
  EXPECT_EQ(fw->server().repair_telemetry().repairs_succeeded, 1u);

  bool hit_done = false;
  fw->server().request_access(
      "SecureMail", request, [&](util::Expected<runtime::AccessOutcome> r) {
        ASSERT_TRUE(r.has_value()) << r.status().to_string();
        EXPECT_TRUE(r->cache_hit);
        EXPECT_EQ(r->instances, repaired->instances);
        hit_done = true;
      });
  EXPECT_TRUE(hit_done);  // a hit answers synchronously
}

}  // namespace
}  // namespace psf
