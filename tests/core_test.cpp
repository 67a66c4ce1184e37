// core module units: case-study world invariants, Framework helpers,
// WorkloadClient mechanics, scenario metadata.
#include <gtest/gtest.h>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "core/scenarios.hpp"
#include "core/workload.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/server.hpp"
#include "runtime/adaptation.hpp"

namespace psf::core {
namespace {

TEST(CaseStudyNetworkTest, MatchesFig5Parameters) {
  CaseStudySites sites;
  net::Network network = case_study_network(&sites);

  ASSERT_EQ(sites.new_york.size(), 3u);
  ASSERT_EQ(sites.san_diego.size(), 3u);
  ASSERT_EQ(sites.seattle.size(), 3u);
  EXPECT_EQ(network.node_count(), 9u);
  // 3 intra-site meshes of 3 links + 3 WAN links.
  EXPECT_EQ(network.link_count(), 12u);

  // Trust ladder.
  EXPECT_EQ(network.node(sites.new_york[0]).credentials.get_int("trust", 0),
            5);
  EXPECT_EQ(network.node(sites.san_diego[0]).credentials.get_int("trust", 0),
            4);
  EXPECT_EQ(network.node(sites.seattle[0]).credentials.get_int("trust", 0),
            2);

  // WAN parameters (Fig. 5).
  auto check_link = [&](net::NodeId a, net::NodeId b, double bw, double ms) {
    auto lid = network.link_between(a, b);
    ASSERT_TRUE(lid.has_value());
    EXPECT_EQ(network.link(*lid).bandwidth_bps, bw);
    EXPECT_EQ(network.link(*lid).latency.millis(), ms);
    EXPECT_FALSE(network.link(*lid).credentials.get_bool("secure", true));
  };
  check_link(sites.san_diego[0], sites.new_york[0], 50e6, 100);
  check_link(sites.seattle[0], sites.san_diego[0], 20e6, 200);
  check_link(sites.seattle[0], sites.new_york[0], 8e6, 400);

  // Intra-site links are secure and fast.
  auto intra = network.link_between(sites.new_york[0], sites.new_york[1]);
  ASSERT_TRUE(intra.has_value());
  EXPECT_TRUE(network.link(*intra).credentials.get_bool("secure", false));
  EXPECT_EQ(network.link(*intra).bandwidth_bps, 100e6);

  // Special nodes are inside their sites and distinct.
  EXPECT_NE(sites.mail_home, sites.ny_client);
}

TEST(CaseStudyNetworkTest, SeattleRoutesViaSanDiegoAreCheaperThanDirect) {
  // The premise behind the paper's Seattle deployment: going through San
  // Diego (200 + 100 ms) still beats the direct 400 ms pipe only for
  // cached traffic — but the raw shortest path Seattle->NY picks the
  // direct 400 ms link over 300 ms via SD? No: Dijkstra minimizes latency,
  // so it must route via San Diego (300 ms total).
  CaseStudySites sites;
  net::Network network = case_study_network(&sites);
  auto route = network.route(sites.seattle[0], sites.new_york[0]);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->total_latency.millis(), 300.0);
  EXPECT_EQ(route->links.size(), 2u);
}

TEST(FrameworkTest, RunUntilConditionStopsOnPredicate) {
  CaseStudySites sites;
  Framework fw(case_study_network(&sites));
  int fired = 0;
  fw.simulator().schedule(sim::Duration::from_seconds(1), [&] { fired = 1; });
  fw.simulator().schedule(sim::Duration::from_seconds(100),
                          [&] { fired = 2; });
  EXPECT_TRUE(fw.run_until_condition([&] { return fired == 1; },
                                     sim::Duration::from_seconds(10)));
  EXPECT_EQ(fired, 1);
  // Deadline respected when the predicate never holds.
  EXPECT_FALSE(fw.run_until_condition([&] { return fired == 99; },
                                      sim::Duration::from_seconds(5)));
}

TEST(ScenarioMetaTest, NamesAndKinds) {
  EXPECT_STREQ(scenario_name(Scenario::kDF), "DF");
  EXPECT_STREQ(scenario_name(Scenario::kSS1000), "SS1000");
  EXPECT_TRUE(scenario_is_dynamic(Scenario::kDS500));
  EXPECT_FALSE(scenario_is_dynamic(Scenario::kSS));
  EXPECT_EQ(std::size(kAllScenarios), 9u);
}

TEST(AdaptationMetaTest, OutcomeNames) {
  using Outcome = runtime::AdaptationEvent::Outcome;
  EXPECT_STREQ(runtime::adaptation_outcome_name(Outcome::kStillValid),
               "still-valid");
  EXPECT_STREQ(runtime::adaptation_outcome_name(Outcome::kRepaired),
               "repaired");
  EXPECT_STREQ(runtime::adaptation_outcome_name(Outcome::kUnsatisfiable),
               "unsatisfiable");
  EXPECT_STREQ(runtime::adaptation_outcome_name(Outcome::kFailed), "failed");
}

// ---- WorkloadClient against a bare MailServer ------------------------------

struct WorkloadFixture : public ::testing::Test {
  WorkloadFixture() : runtime(sim, network) {
    net::Credentials creds;
    creds.set("trust", std::int64_t{5});
    creds.set("secure", true);
    node = network.add_node("n", 1e6, creds);

    config = std::make_shared<mail::MailServiceConfig>();
    spec = std::make_unique<spec::ServiceSpec>(mail::mail_service_spec());
    PSF_CHECK(mail::register_mail_factories(runtime.factories(), config)
                  .is_ok());
    runtime.install(*spec->find_component("MailServer"), node, {}, node,
                    [this](util::Expected<runtime::RuntimeInstanceId> id) {
                      PSF_CHECK(id.has_value());
                      server = *id;
                    });
    sim.run();
    PSF_CHECK(runtime.start(server).is_ok());
    // The entry component: a MailClient performs the client-side sealing of
    // sensitive bodies, exactly as in a planned deployment.
    runtime.install(*spec->find_component("MailClient"), node, {}, node,
                    [this](util::Expected<runtime::RuntimeInstanceId> id) {
                      PSF_CHECK(id.has_value());
                      client = *id;
                    });
    sim.run();
    PSF_CHECK(runtime.wire(client, "ServerInterface", server).is_ok());
    PSF_CHECK(runtime.start(client).is_ok());
  }

  WorkloadClient::Transport transport() {
    return [this](runtime::Request request, runtime::ResponseCallback done) {
      runtime.invoke_from_node(node, client, std::move(request),
                               std::move(done));
    };
  }

  sim::Simulator sim;
  net::Network network;
  runtime::SmockRuntime runtime;
  net::NodeId node;
  mail::MailConfigPtr config;
  std::unique_ptr<spec::ServiceSpec> spec;
  runtime::RuntimeInstanceId server = 0;
  runtime::RuntimeInstanceId client = 0;
};

TEST_F(WorkloadFixture, CompletesConfiguredOperationCounts) {
  WorkloadParams params;
  params.sends = 30;
  params.receives = 3;
  WorkloadClient wl(runtime, "wl-user", config, transport(), params);
  wl.start();
  sim.run();
  ASSERT_TRUE(wl.finished());
  EXPECT_EQ(wl.stats().sends_ok, 30u);
  EXPECT_EQ(wl.stats().receives_ok, 3u);
  EXPECT_EQ(wl.stats().sends_failed, 0u);
  EXPECT_EQ(wl.send_latency_ms().count(), 30u);
  EXPECT_EQ(wl.stats().plaintext_mismatches, 0u);
  EXPECT_GT(wl.stats().messages_received, 0u);
}

TEST_F(WorkloadFixture, HighSensitivitySendsAreSealedEndToEnd) {
  WorkloadParams params;
  params.sends = 10;
  params.receives = 2;
  params.high_send_every = 2;  // half the sends at sensitivity 5
  WorkloadClient wl(runtime, "sealed-user", config, transport(), params);
  wl.start();
  sim.run();
  ASSERT_TRUE(wl.finished());
  EXPECT_EQ(wl.stats().sends_ok, 10u);

  auto* comp = dynamic_cast<mail::MailServerComponent*>(
      runtime.instance(server).component.get());
  ASSERT_NE(comp, nullptr);
  const mail::Account* account = comp->find_account("sealed-user");
  ASSERT_NE(account, nullptr);
  std::size_t sealed = 0;
  for (const auto& m : account->inbox.messages) {
    if (m.sealed != nullptr) ++sealed;
  }
  EXPECT_EQ(sealed, 10u);  // every send had sensitivity > 0 (2 or 5)
}

TEST_F(WorkloadFixture, ZeroReceivesConfiguration) {
  WorkloadParams params;
  params.sends = 5;
  params.receives = 0;
  WorkloadClient wl(runtime, "wr-user", config, transport(), params);
  wl.start();
  sim.run();
  ASSERT_TRUE(wl.finished());
  EXPECT_EQ(wl.stats().sends_ok, 5u);
  EXPECT_EQ(wl.stats().receives_ok, 0u);
}

TEST_F(WorkloadFixture, ThinkTimePacesTheRun) {
  WorkloadParams params;
  params.sends = 10;
  params.receives = 0;
  params.think = sim::Duration::from_millis(100);
  WorkloadClient wl(runtime, "paced-user", config, transport(), params);
  wl.start();
  sim.run();
  // 10 ops, each preceded by 100 ms of think time: at least 1 s elapsed.
  EXPECT_GE(sim.now().seconds(), 1.0);
}

}  // namespace
}  // namespace psf::core
