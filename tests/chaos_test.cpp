// Chaos-readiness: deterministic fault injection (link/node state, loss,
// partitions, FaultPlan replay), transported delivery errors and invoke
// deadlines, lease-based partition detection with recovery, and the client
// retry/rebind policy bridging injected faults.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/case_study.hpp"
#include "core/fault_plan.hpp"
#include "core/framework.hpp"
#include "core/workload.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"

namespace psf {
namespace {

struct ChaosFixture : public ::testing::Test {
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
    fw->enable_adaptation("SecureMail");
  }

  planner::PlanRequest request_for(std::int64_t trust) {
    planner::PlanRequest d;
    d.interface_name = "ClientInterface";
    d.required_properties.emplace_back("TrustLevel",
                                       spec::PropertyValue::integer(trust));
    d.request_rate_rps = 25.0;
    return d;
  }

  std::unique_ptr<runtime::GenericProxy> bind_ok(net::NodeId node,
                                                 std::int64_t trust) {
    auto proxy = fw->make_proxy(node, "SecureMail", request_for(trust));
    util::Status status = util::internal_error("incomplete");
    bool done = false;
    proxy->bind([&](util::Status st) {
      status = st;
      done = true;
    });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(300));
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return proxy;
  }

  runtime::Request receive_request(const std::string& user, bool high) {
    auto body = std::make_shared<mail::ReceiveBody>();
    body->user = user;
    body->max_messages = 16;
    body->include_high_sensitivity = high;
    runtime::Request request;
    request.op = mail::ops::kReceive;
    request.body = body;
    request.wire_bytes = 256;
    request.principal = user;
    return request;
  }

  net::LinkId wan(net::NodeId a, net::NodeId b) {
    auto link = fw->network().link_between(a, b);
    EXPECT_TRUE(link.has_value());
    return *link;
  }

  // Requests a TrustLevel-4, 25 rps access for sd_client straight from the
  // generic server and partitions San Diego `after` later, before all of
  // the deploy's code downloads have landed. Returns the access status.
  util::Status access_cut_by_partition(sim::Duration after) {
    util::Status status = util::internal_error("incomplete");
    bool done = false;
    planner::PlanRequest request = request_for(4);
    request.client_node = sites.sd_client;
    fw->server().request_access(
        "SecureMail", request,
        [&](util::Expected<runtime::AccessOutcome> outcome) {
          status = outcome.status();
          done = true;
        });
    fw->simulator().schedule(
        after, [&]() { fw->monitor().partition(sd_side(), other_side()); });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(60));
    EXPECT_TRUE(done);
    return status;
  }

  std::vector<net::NodeId> sd_side() { return sites.san_diego; }
  std::vector<net::NodeId> other_side() {
    std::vector<net::NodeId> out = sites.new_york;
    out.insert(out.end(), sites.seattle.begin(), sites.seattle.end());
    return out;
  }

  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
};

TEST_F(ChaosFixture, LinkFailureReroutesAndHealRestores) {
  const net::NodeId ny0 = sites.new_york[0];
  const net::NodeId sd0 = sites.san_diego[0];
  const net::LinkId sd_ny = wan(ny0, sd0);

  ASSERT_NEAR(fw->network().cached_route(ny0, sd0)->total_latency.millis(),
              100.0, 1e-9);

  fw->monitor().fail_link(sd_ny);
  // Traffic detours over the Seattle triangle leg: 400 ms + 200 ms.
  EXPECT_FALSE(fw->network().link_up(sd_ny));
  EXPECT_NEAR(fw->network().cached_route(ny0, sd0)->total_latency.millis(),
              600.0, 1e-9);

  fw->monitor().heal_link(sd_ny);
  EXPECT_NEAR(fw->network().cached_route(ny0, sd0)->total_latency.millis(),
              100.0, 1e-9);
}

TEST_F(ChaosFixture, PartitionSeversExactlyTheCrossingLinks) {
  auto severed = fw->monitor().partition(sd_side(), other_side());
  // Both San Diego WAN legs (to New York and to Seattle) cross the cut.
  EXPECT_EQ(severed.size(), 2u);
  EXPECT_FALSE(
      fw->network().route(sites.ny_client, sites.sd_client).has_value());
  EXPECT_FALSE(
      fw->network().route(sites.sea_client, sites.sd_client).has_value());
  // Intra-partition routes survive on both sides.
  EXPECT_TRUE(
      fw->network().route(sites.san_diego[0], sites.sd_client).has_value());
  EXPECT_TRUE(
      fw->network().route(sites.ny_client, sites.sea_client).has_value());

  for (net::LinkId link : severed) fw->monitor().heal_link(link);
  EXPECT_TRUE(
      fw->network().route(sites.ny_client, sites.sd_client).has_value());
}

TEST_F(ChaosFixture, LossDrawsAreSeededAndDeterministic) {
  const net::LinkId sd_ny = wan(sites.new_york[0], sites.san_diego[0]);
  auto run_once = [&](std::uint64_t seed) {
    auto outcome = std::make_pair(0, 0);  // delivered, dropped
    fw->runtime().set_fault_seed(seed);
    fw->monitor().set_link_loss(sd_ny, 0.5);
    for (int i = 0; i < 32; ++i) {
      fw->runtime().send_bytes(
          sites.ny_client, sites.sd_client, 1024,
          [&outcome]() { ++outcome.first; },
          [&outcome](runtime::TransportError) { ++outcome.second; });
    }
    fw->run_for(sim::Duration::from_seconds(5));
    fw->monitor().set_link_loss(sd_ny, 0.0);
    return outcome;
  };

  const auto first = run_once(7);
  const auto replay = run_once(7);
  EXPECT_EQ(first, replay);  // same seed, bit-identical draws
  EXPECT_EQ(first.first + first.second, 32);
  EXPECT_GT(first.first, 0);   // some got through
  EXPECT_GT(first.second, 0);  // some were lost
}

TEST_F(ChaosFixture, InvokeDeadlineCompletesWithTimeout) {
  auto proxy = bind_ok(sites.sd_client, 4);
  // Find the San Diego view: a cross-WAN call to it from New York takes at
  // least the 100 ms propagation delay, so a 1 ms deadline must fire first.
  runtime::RuntimeInstanceId view = 0;
  bool found = false;
  for (auto id : proxy->outcome().instances) {
    const auto& inst = fw->runtime().instance(id);
    if (inst.def->name == "ViewMailServer") {
      view = id;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  config->keys->provision_user("carol", mail::kMaxSensitivity);
  runtime::Response final_response;
  bool done = false;
  fw->runtime().invoke_from_node(sites.ny_client, view,
                                 receive_request("carol", false),
                                 [&](runtime::Response r) {
                                   final_response = r;
                                   done = true;
                                 },
                                 sim::Duration::from_millis(1));
  fw->run_until_condition([&done]() { return done; },
                          sim::Duration::from_seconds(10));
  ASSERT_TRUE(done);
  EXPECT_FALSE(final_response.ok);
  EXPECT_EQ(final_response.transport, runtime::TransportError::kTimeout);
  EXPECT_EQ(fw->runtime().stats().invoke_timeouts, 1u);
  // The late real response must not fire the callback a second time.
  fw->run_for(sim::Duration::from_seconds(5));
}

TEST_F(ChaosFixture, LeaseExpiresUnderPartitionAndRecoversOnHeal) {
  auto& lease = fw->enable_failure_detection();
  auto severed = fw->monitor().partition(sd_side(), other_side());
  ASSERT_EQ(severed.size(), 2u);

  // Every San Diego lease expires: heartbeats cannot reach the registry.
  const bool expired = fw->run_until_condition(
      [&]() { return lease.expirations().size() >= sites.san_diego.size(); },
      sim::Duration::from_seconds(30));
  ASSERT_TRUE(expired);
  for (net::NodeId node : sites.san_diego) {
    EXPECT_FALSE(lease.lease_active(node));
  }
  EXPECT_TRUE(lease.lease_active(sites.ny_client));
  EXPECT_TRUE(lease.lease_active(sites.sea_client));

  // Heal: renewals resume, the leases reactivate (crash and partition are
  // indistinguishable to the detector, but only a partition can recover).
  for (net::LinkId link : severed) fw->monitor().heal_link(link);
  const bool recovered = fw->run_until_condition(
      [&]() { return lease.recoveries() >= sites.san_diego.size(); },
      sim::Duration::from_seconds(30));
  ASSERT_TRUE(recovered);
  for (net::NodeId node : sites.san_diego) {
    EXPECT_TRUE(lease.lease_active(node));
  }
}

TEST_F(ChaosFixture, RetryBridgesAPartitionWindow) {
  config->keys->provision_user("dave", mail::kMaxSensitivity);
  auto plain = bind_ok(sites.sd_client, 4);
  auto resilient = bind_ok(sites.sd_client, 4);
  runtime::RetryPolicy policy;
  policy.attempt_timeout = sim::Duration::from_millis(400);
  policy.backoff_base = sim::Duration::from_millis(100);
  policy.backoff_cap = sim::Duration::from_millis(400);
  policy.max_attempts = 12;
  policy.rebind_on_unreachable = false;  // the binding survives a partition
  resilient->enable_retries(policy, &fw->retry_telemetry());

  auto severed = fw->monitor().partition(sd_side(), other_side());

  // Without retries the cross-WAN receive (high sensitivity is always
  // forwarded past the view) fails fast with a transported error once its
  // forward hop finds no route.
  runtime::Response plain_response;
  bool plain_done = false;
  plain->invoke(receive_request("dave", true), [&](runtime::Response r) {
    plain_response = r;
    plain_done = true;
  });
  fw->run_until_condition([&]() { return plain_done; },
                          sim::Duration::from_seconds(10));
  ASSERT_TRUE(plain_done);
  EXPECT_FALSE(plain_response.ok);
  EXPECT_NE(plain_response.transport, runtime::TransportError::kNone);

  // With retries the same call rides out the 1 s window.
  runtime::Response retry_response;
  bool retry_done = false;
  resilient->invoke(receive_request("dave", true), [&](runtime::Response r) {
    retry_response = r;
    retry_done = true;
  });
  fw->simulator().schedule(sim::Duration::from_seconds(1), [&]() {
    for (net::LinkId link : severed) fw->monitor().heal_link(link);
  });
  fw->run_until_condition([&]() { return retry_done; },
                          sim::Duration::from_seconds(60));
  ASSERT_TRUE(retry_done);
  EXPECT_TRUE(retry_response.ok) << retry_response.error;
  EXPECT_GE(fw->retry_telemetry().retries, 1u);
  EXPECT_GE(fw->retry_telemetry().successes, 1u);
}

TEST_F(ChaosFixture, BindLostToAPartitionRetriesOnceItHeals) {
  // The partition cuts San Diego off before its client's first bind: the
  // lookup query finds no route. The lost hop ends that bind, so the retry
  // after the heal binds afresh instead of joining a dead flight.
  config->keys->provision_user("gus", mail::kMaxSensitivity);
  auto proxy = fw->make_proxy(sites.sd_client, "SecureMail", request_for(4));
  runtime::RetryPolicy policy;
  policy.attempt_timeout = sim::Duration::from_seconds(1);
  policy.max_attempts = 8;
  proxy->enable_retries(policy, &fw->retry_telemetry());

  auto severed = fw->monitor().partition(sd_side(), other_side());
  fw->simulator().schedule(sim::Duration::from_millis(500), [&]() {
    for (net::LinkId link : severed) fw->monitor().heal_link(link);
  });
  runtime::Response response;
  bool done = false;
  proxy->invoke(receive_request("gus", false), [&](runtime::Response r) {
    response = r;
    done = true;
  });
  fw->run_until_condition([&]() { return done; },
                          sim::Duration::from_seconds(60));
  ASSERT_TRUE(done);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(proxy->bound());
  EXPECT_GE(fw->retry_telemetry().retries, 1u);
  EXPECT_EQ(fw->retry_telemetry().timeouts, 0u);
}

TEST_F(ChaosFixture, BindLostToAPartitionFailsWithoutRetries) {
  config->keys->provision_user("hal", mail::kMaxSensitivity);
  auto proxy = fw->make_proxy(sites.sd_client, "SecureMail", request_for(4));
  auto severed = fw->monitor().partition(sd_side(), other_side());

  // Without retries the call fails with the lost hop instead of hanging.
  runtime::Response response;
  bool done = false;
  proxy->invoke(receive_request("hal", false), [&](runtime::Response r) {
    response = r;
    done = true;
  });
  fw->run_until_condition([&]() { return done; },
                          sim::Duration::from_seconds(10));
  ASSERT_TRUE(done);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.transport, runtime::TransportError::kDropped);
  EXPECT_NE(response.error.find("lookup query"), std::string::npos)
      << response.error;
  EXPECT_FALSE(proxy->bound());

  // After the heal, the next call binds afresh.
  for (net::LinkId link : severed) fw->monitor().heal_link(link);
  done = false;
  proxy->invoke(receive_request("hal", false), [&](runtime::Response r) {
    response = r;
    done = true;
  });
  fw->run_until_condition([&]() { return done; },
                          sim::Duration::from_seconds(60));
  ASSERT_TRUE(done);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(proxy->bound());
}

TEST_F(ChaosFixture, RebindRecoversFromUpstreamCrash) {
  // The Seattle chain relays through San Diego's view; crashing its host
  // leaves the Seattle client holding a dead wire. The retry policy's
  // rebind path must replan around the loss without any oracle report.
  config->keys->provision_user("erin", mail::kMaxSensitivity);
  bind_ok(sites.sd_client, 4);  // deploys the San Diego view
  auto proxy = bind_ok(sites.sea_client, 2);
  runtime::RetryPolicy policy;
  policy.attempt_timeout = sim::Duration::from_seconds(20);
  policy.backoff_base = sim::Duration::from_millis(200);
  policy.max_attempts = 8;
  proxy->enable_retries(policy, &fw->retry_telemetry());

  fw->crash_node(sites.sd_client);  // silent: nobody is told

  // High sensitivity forces the Seattle view to forward upstream — straight
  // into the dead San Diego wire.
  runtime::Response response;
  bool done = false;
  proxy->invoke(receive_request("erin", true), [&](runtime::Response r) {
    response = r;
    done = true;
  });
  fw->run_until_condition([&]() { return done; },
                          sim::Duration::from_seconds(300));
  ASSERT_TRUE(done);
  EXPECT_TRUE(response.ok) << response.error << " (transport "
                           << runtime::transport_error_name(response.transport)
                           << ", attempts " << fw->retry_telemetry().attempts
                           << ")";
  EXPECT_GE(fw->retry_telemetry().rebinds, 1u);
}

TEST_F(ChaosFixture, RequestQueuedOnCrashedTargetRebinds) {
  // A request already delivered to an instance but still waiting for its
  // node's CPU when the node crashes must fail as kDeadTarget — the
  // transport error the retry layer answers by rebinding — not as an
  // application error it would hand straight back to the caller.
  config->keys->provision_user("fay", mail::kMaxSensitivity);
  bind_ok(sites.sd_client, 4);  // deploys the San Diego view
  auto proxy = bind_ok(sites.sea_client, 2);
  runtime::RetryPolicy policy;
  policy.attempt_timeout = sim::Duration::from_seconds(20);
  policy.backoff_base = sim::Duration::from_millis(200);
  policy.max_attempts = 8;
  proxy->enable_retries(policy, &fw->retry_telemetry());
  fw->run_for(sim::Duration::from_seconds(5));  // settle registrations

  runtime::RuntimeInstanceId sd_view = 0;
  for (auto id : fw->runtime().instances_on(sites.sd_client)) {
    if (fw->runtime().instance(id).def->name == "ViewMailServer") sd_view = id;
  }
  ASSERT_NE(sd_view, 0u);

  // Keep sd-2's CPU busy for seconds, so the forwarded receive is delivered
  // to the San Diego view and then queues behind that work.
  fw->runtime().charge_cpu(
      sites.sd_client,
      5.0 * fw->network().node(sites.sd_client).cpu_capacity, [] {});
  const std::uint64_t handled_before =
      fw->runtime().instance(sd_view).stats.requests_handled;
  runtime::Response response;
  bool done = false;
  proxy->invoke(receive_request("fay", true), [&](runtime::Response r) {
    response = r;
    done = true;
  });
  ASSERT_TRUE(fw->run_until_condition(
      [&]() {
        return fw->runtime().instance(sd_view).stats.requests_handled >
               handled_before;
      },
      sim::Duration::from_seconds(3)));
  ASSERT_FALSE(done);
  fw->crash_node(sites.sd_client);  // the receive is still on the CPU queue

  fw->run_until_condition([&]() { return done; },
                          sim::Duration::from_seconds(300));
  ASSERT_TRUE(done);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_GE(fw->retry_telemetry().dead_targets, 1u);
  EXPECT_GE(fw->retry_telemetry().rebinds, 1u);
}

TEST_F(ChaosFixture, LostBindAcknowledgementAccountsTheClientOnce) {
  // The server accounts a client's load on the plan's shared placements
  // before it acknowledges the bind. Cutting sd-0–sd-2 while that
  // acknowledgement crosses the WAN loses it. The cut is silent, so the
  // retry's rebind replays the cached plan, and every pooled load must then
  // read what one clean bind accounts.
  config->keys->provision_user("ida", mail::kMaxSensitivity);
  auto proxy = fw->make_proxy(sites.sd_client, "SecureMail", request_for(4));
  runtime::RetryPolicy policy;
  policy.attempt_timeout = sim::Duration::from_seconds(20);
  policy.max_attempts = 8;
  proxy->enable_retries(policy, &fw->retry_telemetry());

  auto any_load_accounted = [&]() {
    for (const auto& inst : fw->server().existing_instances("SecureMail")) {
      if (inst.current_load_rps > 0.0) return true;
    }
    return false;
  };
  runtime::Response response;
  bool done = false;
  proxy->invoke(receive_request("ida", false), [&](runtime::Response r) {
    response = r;
    done = true;
  });
  // The load is accounted in the event that sends the acknowledgement.
  ASSERT_TRUE(fw->run_until_condition(any_load_accounted,
                                      sim::Duration::from_seconds(60)));
  ASSERT_FALSE(proxy->bound());
  fw->network().set_link_up(wan(sites.san_diego[0], sites.sd_client), false);

  fw->run_until_condition([&]() { return done; },
                          sim::Duration::from_seconds(300));
  ASSERT_TRUE(done);
  EXPECT_TRUE(response.ok) << response.error;
  EXPECT_GE(fw->retry_telemetry().retries, 1u);

  // A clean bind accounts each shared placement's inbound rate once.
  const runtime::AccessOutcome& outcome = proxy->outcome();
  EXPECT_TRUE(outcome.cache_hit);
  std::map<runtime::RuntimeInstanceId, double> expected;
  for (std::size_t i = 0; i < outcome.plan.placements.size(); ++i) {
    const planner::Placement& p = outcome.plan.placements[i];
    if (p.id == outcome.plan.entry) continue;
    expected[outcome.instances[i]] += p.inbound_rate_rps;
  }
  ASSERT_FALSE(expected.empty());
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    EXPECT_DOUBLE_EQ(inst.current_load_rps, expected[inst.runtime_id])
        << inst.component->name << " at "
        << fw->network().node(inst.node).name;
  }
}

TEST_F(ChaosFixture, DeployCutAfter1usLeavesNoInstanceBehind) {
  // The deploy's local install (the Decryptor beside the home) lands; the
  // code downloads to San Diego find no route.
  const std::size_t before = fw->runtime().instance_count();
  const util::Status status =
      access_cut_by_partition(sim::Duration::from_micros(1));
  EXPECT_EQ(status.code(), util::ErrorCode::kFailedPrecondition)
      << status.to_string();
  EXPECT_EQ(fw->runtime().instance_count(), before);
}

TEST_F(ChaosFixture, DeployCutAfter20msLeavesNoInstanceBehind) {
  // At 20 ms more of the deploy's installs have landed before the
  // partition kills the rest; the failed deploy must take them all back.
  const std::size_t before = fw->runtime().instance_count();
  const util::Status status =
      access_cut_by_partition(sim::Duration::from_millis(20));
  EXPECT_EQ(status.code(), util::ErrorCode::kFailedPrecondition)
      << status.to_string();
  EXPECT_EQ(fw->runtime().instance_count(), before);
}

// Two identical worlds driven by the same FaultPlan seed must agree on every
// counter — the replayability contract chaos debugging depends on.
TEST(ChaosReplayTest, SameSeedIsBitIdentical) {
  struct Counters {
    std::uint64_t sent, dropped, unroutable, timeouts, delivered;
    std::uint64_t sends_ok, sends_failed, receives_ok, receives_failed;
    std::uint64_t attempts, retries, expirations;
    bool operator==(const Counters& o) const {
      return sent == o.sent && dropped == o.dropped &&
             unroutable == o.unroutable && timeouts == o.timeouts &&
             delivered == o.delivered && sends_ok == o.sends_ok &&
             sends_failed == o.sends_failed && receives_ok == o.receives_ok &&
             receives_failed == o.receives_failed && attempts == o.attempts &&
             retries == o.retries && expirations == o.expirations;
    }
  };

  auto run_world = [](std::uint64_t seed) -> Counters {
    core::CaseStudySites sites;
    net::Network network = core::case_study_network(&sites);
    core::FrameworkOptions options;
    options.lookup_node = sites.new_york[0];
    options.server_node = sites.new_york[0];
    core::Framework fw(std::move(network), options);
    auto config = std::make_shared<mail::MailServiceConfig>();
    EXPECT_TRUE(
        mail::register_mail_factories(fw.runtime().factories(), config)
            .is_ok());
    EXPECT_TRUE(fw.register_service(mail::mail_registration(sites.mail_home),
                                    mail::mail_translator())
                    .is_ok());
    fw.enable_adaptation("SecureMail");

    planner::PlanRequest request;
    request.interface_name = "ClientInterface";
    request.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(4));
    request.request_rate_rps = 25.0;
    auto proxy = fw.make_proxy(sites.sd_client, "SecureMail", request);
    bool bound = false;
    proxy->bind([&](util::Status st) {
      EXPECT_TRUE(st.is_ok()) << st.to_string();
      bound = true;
    });
    fw.run_until_condition([&]() { return bound; },
                           sim::Duration::from_seconds(300));

    auto& lease = fw.enable_failure_detection();
    runtime::RetryPolicy policy;
    policy.attempt_timeout = sim::Duration::from_millis(500);
    policy.backoff_base = sim::Duration::from_millis(100);
    policy.max_attempts = 6;
    proxy->enable_retries(policy, &fw.retry_telemetry());

    config->keys->provision_user("frank", mail::kMaxSensitivity);
    core::WorkloadParams params;
    params.sends = 25;
    params.receives = 5;
    core::WorkloadClient client(
        fw.runtime(), "frank", config,
        [&proxy](runtime::Request req, runtime::ResponseCallback done) {
          proxy->invoke(std::move(req), std::move(done));
        },
        params);

    core::FaultPlan plan(seed);
    plan.random_link_flaps(fw.network(), 4, sim::Duration::from_seconds(1),
                           sim::Duration::from_seconds(8),
                           sim::Duration::from_millis(100),
                           sim::Duration::from_millis(600));
    plan.loss_burst(*fw.network().link_between(sites.new_york[0],
                                               sites.san_diego[0]),
                    sim::Duration::from_seconds(2),
                    sim::Duration::from_seconds(2), 0.3);
    plan.crash_node_at(sim::Duration::from_seconds(5), sites.sea_client);
    plan.arm(fw);

    client.start();
    fw.run_for(sim::Duration::from_seconds(30));

    const auto& stats = fw.runtime().stats();
    const auto& wl = client.stats();
    return Counters{stats.messages_sent,
                    stats.messages_dropped,
                    stats.messages_unroutable,
                    stats.invoke_timeouts,
                    stats.requests_delivered,
                    wl.sends_ok,
                    wl.sends_failed,
                    wl.receives_ok,
                    wl.receives_failed,
                    fw.retry_telemetry().attempts,
                    fw.retry_telemetry().retries,
                    lease.expirations().size()};
  };

  const Counters first = run_world(42);
  const Counters replay = run_world(42);
  EXPECT_TRUE(first == replay);
  EXPECT_GT(first.sent, 0u);
}

}  // namespace
}  // namespace psf
