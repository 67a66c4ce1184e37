// §6 extensions: network monitoring driving environment refresh and
// replanning.
#include <gtest/gtest.h>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "planner/planner.hpp"

namespace psf {
namespace {

// ---- monitor primitives --------------------------------------------------

TEST(MonitorTest, MutationsNotifyObservers) {
  sim::Simulator sim;
  net::Network network;
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  const net::LinkId l =
      network.add_link(a, b, 10e6, sim::Duration::from_millis(10));

  runtime::NetworkMonitor monitor(sim, network);
  std::vector<runtime::NetworkMonitor::ChangeKind> seen;
  monitor.subscribe([&seen](const runtime::NetworkMonitor::ChangeEvent& e) {
    seen.push_back(e.kind);
  });

  monitor.set_link_bandwidth(l, 5e6);
  monitor.set_link_latency(l, sim::Duration::from_millis(80));
  monitor.set_link_credential(l, "secure", false);
  monitor.set_node_credential(a, "trust", std::int64_t{2});
  monitor.set_node_capacity(b, 2e6);

  ASSERT_EQ(seen.size(), 5u);
  EXPECT_EQ(network.link(l).bandwidth_bps, 5e6);
  EXPECT_EQ(network.link(l).latency.millis(), 80.0);
  EXPECT_FALSE(network.link(l).credentials.get_bool("secure", true));
  EXPECT_EQ(network.node(a).credentials.get_int("trust", 0), 2);
  EXPECT_EQ(network.node(b).cpu_capacity, 2e6);
}

TEST(MonitorTest, ScheduledChangeFiresAtSimTime) {
  sim::Simulator sim;
  net::Network network;
  const net::NodeId a = network.add_node("a");
  const net::NodeId b = network.add_node("b");
  const net::LinkId l =
      network.add_link(a, b, 10e6, sim::Duration::from_millis(10));
  runtime::NetworkMonitor monitor(sim, network);

  monitor.schedule_change(sim::Duration::from_seconds(30),
                          [l](runtime::NetworkMonitor& m) {
                            m.set_link_bandwidth(l, 1e6);
                          });
  sim.run_until(sim::Time::zero() + sim::Duration::from_seconds(29));
  EXPECT_EQ(network.link(l).bandwidth_bps, 10e6);
  sim.run();
  EXPECT_EQ(network.link(l).bandwidth_bps, 1e6);
}

// ---- end-to-end adaptive replanning ---------------------------------------

struct AdaptationFixture : public ::testing::Test {
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

  util::Expected<runtime::AccessOutcome> try_bind(net::NodeId node,
                                                  std::int64_t trust) {
    planner::PlanRequest defaults;
    defaults.interface_name = "ClientInterface";
    defaults.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(trust));
    defaults.request_rate_rps = 50.0;
    auto proxy = fw->make_proxy(node, "SecureMail", defaults);
    util::Status status = util::internal_error("incomplete");
    bool done = false;
    proxy->bind([&](util::Status st) {
      status = st;
      done = true;
    });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(120));
    if (!status.is_ok()) return status;
    return proxy->outcome();
  }

  runtime::AccessOutcome bind(net::NodeId node, std::int64_t trust) {
    auto outcome = try_bind(node, trust);
    EXPECT_TRUE(outcome.has_value()) << outcome.status().to_string();
    return outcome.has_value() ? std::move(outcome).value()
                               : runtime::AccessOutcome{};
  }

  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
};

TEST_F(AdaptationFixture, SecuringTheWanLinkRemovesEncryptors) {
  // Baseline: San Diego needs an Encryptor/Decryptor pair.
  auto before = bind(sites.sd_client, 4);
  std::set<std::string> comps_before;
  for (const auto& p : before.plan.placements) {
    comps_before.insert(p.component->name);
  }
  ASSERT_TRUE(comps_before.count("Encryptor"));

  // Operations installs a VPN: the SD<->NY link becomes secure. The monitor
  // event refreshes the planner's environment (enable_adaptation), so a new
  // client's plan needs no tunnel.
  auto lid = fw->network().link_between(sites.san_diego[0],
                                        sites.new_york[0]);
  ASSERT_TRUE(lid.has_value());
  fw->monitor().set_link_credential(*lid, "secure", true);

  auto after = bind(sites.sd_client, 4);
  std::set<std::string> comps_after;
  for (const auto& p : after.plan.placements) {
    comps_after.insert(p.component->name);
  }
  EXPECT_FALSE(comps_after.count("Encryptor"))
      << after.plan.to_string(fw->network());
  EXPECT_FALSE(comps_after.count("Decryptor"));
  // Still cached behind the slow link.
  EXPECT_TRUE(comps_after.count("ViewMailServer"));
}

TEST_F(AdaptationFixture, RaisingSeattleTrustUnlocksFullClient) {
  // Seattle at trust 2 cannot host the full MailClient...
  {
    planner::PlanRequest defaults;
    defaults.interface_name = "ClientInterface";
    defaults.required_properties.emplace_back(
        "TrustLevel", spec::PropertyValue::integer(4));
    auto proxy = fw->make_proxy(sites.sea_client, "SecureMail", defaults);
    util::Status status = util::Status::ok();
    bool done = false;
    proxy->bind([&](util::Status st) {
      status = st;
      done = true;
    });
    fw->run_until_condition([&done]() { return done; },
                            sim::Duration::from_seconds(120));
    EXPECT_EQ(status.code(), util::ErrorCode::kUnsatisfiable);
  }
  // ...until the partner site is promoted.
  for (net::NodeId n : sites.seattle) {
    fw->monitor().set_node_credential(n, "trust", std::int64_t{4});
  }
  auto outcome = bind(sites.sea_client, 4);
  EXPECT_EQ(fw->runtime().instance(outcome.entry).def->name, "MailClient");
}

TEST_F(AdaptationFixture, DemotingSeattleTrustCutsItOff) {
  // The converse: Seattle at trust 2 hosts the restricted client...
  bind(sites.sea_client, 2);

  // ...until the partner site is demoted to trust 1, below every client
  // component's installation condition.
  for (net::NodeId n : sites.seattle) {
    fw->monitor().set_node_credential(n, "trust", std::int64_t{1});
  }
  ASSERT_TRUE(fw->server().refresh_environment("SecureMail").is_ok());
  const auto* env = fw->server().environment("SecureMail");
  ASSERT_NE(env, nullptr);
  EXPECT_EQ(env->node_env(sites.sea_client).get("TrustLevel"),
            spec::PropertyValue::integer(1));

  auto after = try_bind(sites.sea_client, 2);
  ASSERT_FALSE(after.has_value());
  EXPECT_EQ(after.status().code(), util::ErrorCode::kUnsatisfiable);

  // San Diego kept its own trust and still binds.
  EXPECT_TRUE(try_bind(sites.sd_client, 4).has_value());
}

}  // namespace
}  // namespace psf
