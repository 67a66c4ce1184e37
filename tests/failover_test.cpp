// Fault handling (the §3.2 integration the paper defers to future work):
// node crashes tear down hosted instances, lease-based failure detection —
// not an oracle notification — discovers the loss, the reusable pool
// quarantines the dead, later clients plan around the loss, and tracked
// deployments report unrecoverable bindings.
//
// Every scenario crashes nodes with crash_node (silent: instances vanish,
// the node drops off the network, nobody is told). Discovery happens only
// through missed lease renewals at the LookupService, which fire the same
// monitor observer chain an explicit report would.
#include <gtest/gtest.h>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"

namespace psf {
namespace {

struct FailoverFixture : public ::testing::Test {
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
    controller = &fw->enable_adaptation("SecureMail");
    // After register_service (it drains the simulator); the lease timers
    // run forever, so tests below only use bounded run_* calls.
    lease = &fw->enable_failure_detection(params);
  }

  util::Expected<runtime::AccessOutcome> try_bind(net::NodeId node) {
    planner::PlanRequest request;
    request.interface_name = "ClientInterface";
    request.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(4));
    request.client_node = node;
    request.request_rate_rps = 50.0;
    auto proxy = fw->make_proxy(node, "SecureMail", request);
    util::Status status = util::internal_error("incomplete");
    bool done = false;
    proxy->bind([&](util::Status st) {
      status = st;
      done = true;
    });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(300));
    if (!status.is_ok()) return status;
    return proxy->outcome();
  }

  // Crashes `node` silently and waits for the lease sweep to notice.
  void crash_and_detect(net::NodeId node) {
    const std::size_t before = lease->expirations().size();
    fw->crash_node(node);
    const bool detected = fw->run_until_condition(
        [&]() { return lease->expirations().size() > before; },
        sim::Duration::from_seconds(30));
    ASSERT_TRUE(detected) << "lease for " << fw->network().node(node).name
                          << " never expired";
    EXPECT_EQ(lease->expirations().back().node, node);
  }

  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
  runtime::LeaseParams params;  // defaults: 500ms heartbeat, 1500ms grace
  runtime::LeaseManager* lease = nullptr;
  runtime::AdaptationController* controller = nullptr;
};

TEST_F(FailoverFixture, CrashTearsDownHostedInstances) {
  auto outcome = try_bind(sites.sd_client);
  ASSERT_TRUE(outcome.has_value());
  const std::size_t on_node =
      fw->runtime().instances_on(sites.sd_client).size();
  ASSERT_GE(on_node, 3u);  // MailClient + ViewMailServer + Encryptor

  auto lost = fw->crash_node(sites.sd_client);
  EXPECT_EQ(lost.size(), on_node);
  EXPECT_TRUE(fw->runtime().instances_on(sites.sd_client).empty());
  for (auto id : lost) {
    EXPECT_FALSE(fw->runtime().exists(id));
  }
}

TEST_F(FailoverFixture, LeaseExpiryDetectsSilentCrash) {
  ASSERT_TRUE(try_bind(sites.sd_client).has_value());
  crash_and_detect(sites.sd_client);

  // Detection latency bound from ISSUE acceptance: at most twice the lease
  // duration (heartbeat + grace), measured from the crash instant.
  const double bound_ms = 2.0 * lease->lease_duration().millis();
  util::SampleSet latency = lease->detection_latency_ms();
  ASSERT_GT(latency.count(), 0u);
  EXPECT_LE(latency.max(), bound_ms);
}

TEST_F(FailoverFixture, PoolQuarantinesDeadInstances) {
  auto outcome = try_bind(sites.sd_client);
  ASSERT_TRUE(outcome.has_value());
  const std::size_t pool_before =
      fw->server().existing_instances("SecureMail").size();
  ASSERT_GE(pool_before, 2u);  // MailServer + shared SD components

  crash_and_detect(sites.sd_client);  // expiry refresh quarantines

  const auto& pool = fw->server().existing_instances("SecureMail");
  EXPECT_LT(pool.size(), pool_before);
  for (const auto& inst : pool) {
    EXPECT_TRUE(fw->runtime().exists(inst.runtime_id));
    EXPECT_NE(inst.node, sites.sd_client);
  }
}

TEST_F(FailoverFixture, NextClientPlansAroundTheCrash) {
  ASSERT_TRUE(try_bind(sites.sd_client).has_value());
  crash_and_detect(sites.sd_client);

  // A client on a surviving San Diego node gets a complete fresh chain (the
  // dead components are not referenced).
  auto outcome = try_bind(sites.san_diego[1]);
  ASSERT_TRUE(outcome.has_value()) << outcome.status().to_string();
  for (const auto& p : outcome->plan.placements) {
    EXPECT_NE(p.node, sites.sd_client);
  }
  for (auto id : outcome->instances) {
    EXPECT_TRUE(fw->runtime().exists(id));
  }

  // And the new deployment serves mail.
  config->keys->provision_user("survivor", mail::kMaxSensitivity);
  auto body = std::make_shared<mail::SendBody>();
  body->message.id = 1;
  body->message.from = "survivor";
  body->message.to = "survivor";
  body->message.sensitivity = 2;
  body->message.plaintext = {'o', 'k'};
  runtime::Request request;
  request.op = mail::ops::kSend;
  request.body = body;
  request.wire_bytes = mail::send_wire_bytes(body->message);
  bool ok = false;
  fw->runtime().invoke_from_node(sites.san_diego[1], outcome->entry,
                                 std::move(request),
                                 [&ok](runtime::Response r) { ok = r.ok; });
  fw->run_until_condition([&ok]() { return ok; },
                          sim::Duration::from_seconds(30));
  EXPECT_TRUE(ok);
}

TEST_F(FailoverFixture, ControllerReportsLostEntryAsUnrecoverable) {
  auto outcome = try_bind(sites.sd_client);
  ASSERT_TRUE(outcome.has_value());
  planner::PlanRequest request;
  request.interface_name = "ClientInterface";
  request.required_properties.emplace_back("TrustLevel",
                                           spec::PropertyValue::integer(4));
  request.client_node = sites.sd_client;
  request.request_rate_rps = 50.0;
  controller->track(*outcome, request);

  // The crash takes the client's own entry with it: the binding cannot be
  // preserved, which the controller must surface rather than silently
  // "fix". With the client node physically gone the repair is
  // unsatisfiable (no node can host the pinned entry).
  crash_and_detect(sites.sd_client);
  fw->run_for(sim::Duration::from_seconds(10));

  bool unsatisfiable_seen = false;
  for (const auto& event : controller->events()) {
    if (event.outcome != runtime::AdaptationEvent::Outcome::kUnsatisfiable) {
      continue;
    }
    unsatisfiable_seen = true;
    EXPECT_NE(event.detail.find("node-death@sd-2"), std::string::npos)
        << event.detail;
    EXPECT_NE(event.detail.find("backing instance gone"), std::string::npos)
        << event.detail;
  }
  EXPECT_TRUE(unsatisfiable_seen);
  EXPECT_EQ(controller->stats().repaired, 0u);
}

TEST_F(FailoverFixture, PartitionHealFiresExactlyOneExpiryAndOneRecovery) {
  // A partitioned node's lease expires (indistinguishable from a crash);
  // healing the cut lets a late renewal reactivate it. The observer chain
  // must see exactly ONE failure report and the manager exactly ONE
  // recovery — no double-firing from renewals racing the expiry sweep.
  std::size_t failure_events = 0;
  fw->monitor().subscribe([&](const runtime::NetworkMonitor::ChangeEvent& e) {
    if (e.kind == runtime::NetworkMonitor::ChangeKind::kNodeFailure &&
        e.node == sites.sd_client) {
      ++failure_events;
    }
  });

  std::vector<net::NodeId> others;
  for (net::NodeId n : fw->network().all_nodes()) {
    if (!(n == sites.sd_client)) others.push_back(n);
  }
  const std::vector<net::LinkId> cut =
      fw->monitor().partition({sites.sd_client}, others);
  ASSERT_FALSE(cut.empty());

  const bool expired = fw->run_until_condition(
      [&]() { return !lease->lease_active(sites.sd_client); },
      sim::Duration::from_seconds(30));
  ASSERT_TRUE(expired);
  EXPECT_EQ(failure_events, 1u);

  for (net::LinkId l : cut) fw->monitor().heal_link(l);
  const bool recovered = fw->run_until_condition(
      [&]() { return lease->lease_active(sites.sd_client); },
      sim::Duration::from_seconds(30));
  ASSERT_TRUE(recovered);
  EXPECT_EQ(lease->recoveries(), 1u);

  // Steady state after the heal: no further expiries, no further
  // recoveries — one partition, one expiry, one recovery, done.
  fw->run_for(sim::Duration::from_seconds(10));
  EXPECT_EQ(failure_events, 1u);
  EXPECT_EQ(lease->recoveries(), 1u);
  EXPECT_TRUE(lease->lease_active(sites.sd_client));
  std::size_t node_expiries = 0;
  for (const auto& e : lease->expirations()) {
    if (e.node == sites.sd_client) ++node_expiries;
  }
  EXPECT_EQ(node_expiries, 1u);
}

TEST_F(FailoverFixture, StaleHeartbeatCannotReviveACrashedNode) {
  // The race: a renewal is IN FLIGHT on a slow link when its node crashes.
  // Store-and-forward delivers it after the lease has already expired; an
  // unguarded registry would renew the lease, report a phantom recovery,
  // and then fire a SECOND expiry for the same crash. The registry must
  // drop renewals from nodes it can see are down.
  std::size_t failure_events = 0;
  fw->monitor().subscribe([&](const runtime::NetworkMonitor::ChangeEvent& e) {
    if (e.kind == runtime::NetworkMonitor::ChangeKind::kNodeFailure &&
        e.node == sites.sd_client) {
      ++failure_events;
    }
  });
  fw->run_for(sim::Duration::from_seconds(2));  // settle into steady renewal

  // Stretch EVERY access link of the client beyond the lease duration (a
  // single slowed link would just reroute), then crash the node the instant
  // its next renewal is on the wire.
  std::size_t slowed = 0;
  for (std::uint32_t l = 0; l < fw->network().link_count(); ++l) {
    const net::LinkId lid{l};
    const net::Link& link = fw->network().link(lid);
    if (link.a == sites.sd_client || link.b == sites.sd_client) {
      fw->monitor().set_link_latency(lid, sim::Duration::from_millis(2500));
      ++slowed;
    }
  }
  ASSERT_GT(slowed, 0u);
  const std::uint64_t sent_before = lease->heartbeats_sent();
  ASSERT_TRUE(fw->run_until_condition(
      [&]() { return lease->heartbeats_sent() > sent_before; },
      sim::Duration::from_seconds(2)));
  fw->crash_node(sites.sd_client);

  // 10s covers the in-flight delivery (2.5s), the expiry, and — were the
  // bug present — the phantom recovery plus its second expiry.
  fw->run_for(sim::Duration::from_seconds(10));
  EXPECT_FALSE(lease->lease_active(sites.sd_client));
  EXPECT_EQ(failure_events, 1u);
  EXPECT_EQ(lease->recoveries(), 0u);
  std::size_t node_expiries = 0;
  for (const auto& e : lease->expirations()) {
    if (e.node == sites.sd_client) ++node_expiries;
  }
  EXPECT_EQ(node_expiries, 1u);
}

TEST_F(FailoverFixture, ShortCrashLeavesNoStaleDetectionSample) {
  // A crash shorter than the lease is never detected: the revived node's
  // next renewal ends it. A later expiry of the same node (here a
  // partition) must not be charged to that crash as a detection latency.
  fw->crash_node(sites.sd_client);
  fw->run_for(sim::Duration::from_millis(500));
  fw->revive_node(sites.sd_client);
  fw->run_for(sim::Duration::from_seconds(5));
  ASSERT_TRUE(lease->lease_active(sites.sd_client));

  std::vector<net::NodeId> others;
  for (net::NodeId n : fw->network().all_nodes()) {
    if (!(n == sites.sd_client)) others.push_back(n);
  }
  ASSERT_FALSE(fw->monitor().partition({sites.sd_client}, others).empty());
  ASSERT_TRUE(fw->run_until_condition(
      [&]() { return !lease->lease_active(sites.sd_client); },
      sim::Duration::from_seconds(30)));
  EXPECT_EQ(lease->detection_latency_ms().count(), 0u);
}

TEST_F(FailoverFixture, CrashOfEmptyNodeIsHarmless) {
  crash_and_detect(sites.seattle[1]);
  EXPECT_TRUE(fw->runtime().instances_on(sites.seattle[1]).empty());
  // Service still fully functional.
  EXPECT_TRUE(try_bind(sites.sd_client).has_value());
}

}  // namespace
}  // namespace psf
