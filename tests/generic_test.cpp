// Generic proxy / generic server: the Fig. 1 timeline — registration,
// lookup, proxy download, access planning, deployment, transparent
// generic→specific proxy swap, and instance reuse across clients.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"

namespace psf {
namespace {

struct GenericFixture : public ::testing::Test {
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
  }

  void register_mail() {
    auto st = fw->register_service(mail::mail_registration(sites.mail_home),
                                   mail::mail_translator());
    ASSERT_TRUE(st.is_ok()) << st.to_string();
  }

  planner::PlanRequest defaults(std::int64_t trust = 4) {
    planner::PlanRequest d;
    d.interface_name = "ClientInterface";
    d.required_properties.emplace_back("TrustLevel",
                                       spec::PropertyValue::integer(trust));
    d.request_rate_rps = 50.0;
    return d;
  }

  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
};

TEST_F(GenericFixture, RegistrationDeploysInitialPlacements) {
  register_mail();
  // The MailServer runs at its home node.
  auto instances = fw->runtime().instances_on(sites.mail_home);
  ASSERT_EQ(instances.size(), 1u);
  EXPECT_EQ(fw->runtime().instance(instances[0]).def->name, "MailServer");
  EXPECT_TRUE(fw->runtime().instance(instances[0]).started);
  // And is advertised.
  EXPECT_NE(fw->lookup().find("SecureMail"), nullptr);
  EXPECT_EQ(fw->server().existing_instances("SecureMail").size(), 1u);
}

TEST_F(GenericFixture, DuplicateRegistrationRejected) {
  register_mail();
  util::Status st = util::Status::ok();
  fw->server().register_service(mail::mail_registration(sites.mail_home),
                                mail::mail_translator(),
                                [&st](util::Status s) { st = s; });
  fw->run();
  EXPECT_EQ(st.code(), util::ErrorCode::kAlreadyExists);
}

TEST_F(GenericFixture, RegistrationValidatesSpec) {
  auto registration = mail::mail_registration(sites.mail_home);
  registration.spec.components.clear();  // break it: views represent nothing
  registration.spec.name = "Broken";
  util::Status st = util::Status::ok();
  fw->server().register_service(std::move(registration),
                                mail::mail_translator(),
                                [&st](util::Status s) { st = s; });
  fw->run();
  EXPECT_FALSE(st.is_ok());
}

TEST_F(GenericFixture, UnknownInitialPlacementRegistersNothing) {
  // A bad initial placement fails the registration before anything is
  // advertised or installed, so the corrected registration then succeeds.
  auto registration = mail::mail_registration(sites.mail_home);
  registration.initial_placements[0].component = "NoSuchComponent";
  util::Status st = util::Status::ok();
  fw->server().register_service(std::move(registration),
                                mail::mail_translator(),
                                [&st](util::Status s) { st = s; });
  fw->run();
  EXPECT_EQ(st.code(), util::ErrorCode::kNotFound);
  EXPECT_EQ(fw->lookup().find("SecureMail"), nullptr);
  EXPECT_EQ(fw->server().service_spec("SecureMail"), nullptr);
  EXPECT_TRUE(fw->runtime().instances_on(sites.mail_home).empty());
  register_mail();
}

// A registration made before its components' factories fails before anything
// is advertised or installed, and the same registration succeeds once the
// factories are registered.
TEST(GenericRegistrationTest, MissingFactoryRegistersNothing) {
  core::CaseStudySites sites;
  net::Network network = core::case_study_network(&sites);
  core::FrameworkOptions options;
  options.lookup_node = sites.new_york[0];
  options.server_node = sites.new_york[0];
  core::Framework fw(std::move(network), options);

  util::Status st = fw.register_service(
      mail::mail_registration(sites.mail_home), mail::mail_translator());
  EXPECT_EQ(st.code(), util::ErrorCode::kNotFound) << st.to_string();
  EXPECT_EQ(fw.lookup().find("SecureMail"), nullptr);
  EXPECT_EQ(fw.server().service_spec("SecureMail"), nullptr);
  EXPECT_TRUE(fw.runtime().instances_on(sites.mail_home).empty());

  auto config = std::make_shared<mail::MailServiceConfig>();
  ASSERT_TRUE(
      mail::register_mail_factories(fw.runtime().factories(), config).is_ok());
  st = fw.register_service(mail::mail_registration(sites.mail_home),
                           mail::mail_translator());
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_NE(fw.lookup().find("SecureMail"), nullptr);
  EXPECT_EQ(fw.runtime().instances_on(sites.mail_home).size(), 1u);
}

TEST_F(GenericFixture, OutOfRangeInitialPlacementNodeIsInvalid) {
  auto registration = mail::mail_registration(sites.mail_home);
  registration.initial_placements[0].node =
      net::NodeId{static_cast<std::uint32_t>(fw->network().node_count())};
  util::Status st = util::Status::ok();
  fw->server().register_service(std::move(registration),
                                mail::mail_translator(),
                                [&st](util::Status s) { st = s; });
  fw->run();
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(fw->lookup().find("SecureMail"), nullptr);
  register_mail();
}

TEST_F(GenericFixture, UnknownServiceAccessFails) {
  register_mail();
  auto proxy = fw->make_proxy(sites.ny_client, "NoSuchService", defaults());
  util::Status st = util::Status::ok();
  proxy->bind([&st](util::Status s) { st = s; });
  fw->run();
  EXPECT_EQ(st.code(), util::ErrorCode::kNotFound);
}

TEST_F(GenericFixture, InvokeAutoBindsAndDelivers) {
  register_mail();
  auto proxy = fw->make_proxy(sites.ny_client, "SecureMail", defaults());
  EXPECT_FALSE(proxy->bound());

  config->keys->provision_user("alice", mail::kMaxSensitivity);
  auto body = std::make_shared<mail::SendBody>();
  body->message.id = 1;
  body->message.from = "alice";
  body->message.to = "alice";
  body->message.plaintext = {'h', 'i'};
  runtime::Request request;
  request.op = mail::ops::kSend;
  request.body = body;
  request.wire_bytes = mail::send_wire_bytes(body->message);

  bool ok = false;
  proxy->invoke(std::move(request), [&](runtime::Response response) {
    EXPECT_TRUE(response.ok) << response.error;
    ok = true;
  });
  fw->run();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(proxy->bound());
  // The entry instance is a MailClient on the client's node.
  const auto& outcome = proxy->outcome();
  EXPECT_EQ(fw->runtime().instance(outcome.entry).def->name, "MailClient");
  EXPECT_EQ(fw->runtime().instance(outcome.entry).node, sites.ny_client);
}

TEST_F(GenericFixture, ConcurrentBindsJoin) {
  register_mail();
  auto proxy = fw->make_proxy(sites.ny_client, "SecureMail", defaults());
  int completions = 0;
  for (int i = 0; i < 3; ++i) {
    proxy->bind([&completions](util::Status st) {
      EXPECT_TRUE(st.is_ok());
      ++completions;
    });
  }
  fw->run();
  EXPECT_EQ(completions, 3);
  // A bind after completion returns immediately.
  bool again = false;
  proxy->bind([&again](util::Status st) {
    EXPECT_TRUE(st.is_ok());
    again = true;
  });
  EXPECT_TRUE(again);
}

TEST_F(GenericFixture, SecondClientReusesSharedComponents) {
  register_mail();
  auto p1 = fw->make_proxy(sites.sd_client, "SecureMail", defaults());
  util::Status s1 = util::internal_error("");
  p1->bind([&s1](util::Status st) { s1 = st; });
  fw->run();
  ASSERT_TRUE(s1.is_ok()) << s1.to_string();
  const std::size_t after_first = fw->runtime().instance_count();

  // A different rate bucket keeps this a *cold* plan (an identical request
  // would be served from the plan cache — covered by plan_cache_test).
  auto d2 = defaults();
  d2.request_rate_rps = 150.0;
  auto p2 = fw->make_proxy(sites.sd_client, "SecureMail", d2);
  util::Status s2 = util::internal_error("");
  p2->bind([&s2](util::Status st) { s2 = st; });
  fw->run();
  ASSERT_TRUE(s2.is_ok()) << s2.to_string();
  const std::size_t after_second = fw->runtime().instance_count();

  // The second San Diego client gets only a private MailClient and binds to
  // the existing view (whose downstream tunnel is already wired, so the new
  // plan contains exactly two placements).
  EXPECT_FALSE(p2->outcome().cache_hit);
  EXPECT_EQ(after_second, after_first + 1)
      << p2->outcome().plan.to_string(fw->network());
  EXPECT_EQ(p2->outcome().plan.placements.size(), 2u);
  EXPECT_EQ(p2->outcome().plan.metrics.reused_components, 1u);

  // Load accounting on the shared view reflects both clients.
  bool found = false;
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    if (inst.component->name == "ViewMailServer") {
      found = true;
      EXPECT_NEAR(inst.current_load_rps, 200.0, 1e-9);  // 50 + 150 rps
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(GenericFixture, NonFiniteRateAccessFailsAndLeavesLoadsUnchanged) {
  register_mail();
  auto first = fw->make_proxy(sites.sd_client, "SecureMail", defaults());
  util::Status st = util::internal_error("");
  first->bind([&st](util::Status s) { st = s; });
  fw->run();
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  std::vector<double> before;
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    before.push_back(inst.current_load_rps);
  }

  // A NaN rate must not plan: its load accounting would turn every pooled
  // load it touches into NaN, and a NaN load admits any rate.
  auto nan = defaults();
  nan.request_rate_rps = std::numeric_limits<double>::quiet_NaN();
  auto second = fw->make_proxy(sites.sd_client, "SecureMail", nan);
  st = util::Status::ok();
  second->bind([&st](util::Status s) { st = s; });
  fw->run();
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidArgument) << st.to_string();

  std::vector<double> after;
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    after.push_back(inst.current_load_rps);
  }
  EXPECT_EQ(after, before);
}

TEST_F(GenericFixture, PlanningCostChargedAtServerHost) {
  register_mail();
  auto proxy = fw->make_proxy(sites.sd_client, "SecureMail", defaults());
  util::Status st = util::internal_error("");
  proxy->bind([&st](util::Status s) { st = s; });
  fw->run();
  ASSERT_TRUE(st.is_ok());
  EXPECT_GT(proxy->outcome().costs.planning.nanos(), 0);
  EXPECT_GT(proxy->outcome().costs.planning_wall_seconds, 0.0);
  EXPECT_GT(proxy->outcome().costs.lookup.nanos(), 0);
}

TEST_F(GenericFixture, LookupChargesQueryThenDownloadThenRevalidation) {
  register_mail();
  const runtime::ServiceAdvertisement* ad = fw->lookup().find("SecureMail");
  ASSERT_NE(ad, nullptr);
  const net::NodeId registry = fw->lookup().host();
  // Store-and-forward over an idle network: each hop costs exactly its
  // link's propagation + serialization.
  const auto path_ns = [this](net::NodeId from, net::NodeId to,
                              std::uint64_t bytes) -> std::int64_t {
    const std::optional<net::Route> route = fw->network().route(from, to);
    if (!route) {
      ADD_FAILURE() << "no route";
      return 0;
    }
    std::int64_t ns = 0;
    for (net::LinkId l : route->links) {
      ns += fw->network().link(l).transfer_time(bytes).nanos();
    }
    return ns;
  };
  const std::int64_t query_ns = path_ns(sites.sd_client, registry, 512);

  // First bind: the 512-byte query to the registry, then the full proxy
  // code back to the client.
  auto first = fw->make_proxy(sites.sd_client, "SecureMail", defaults());
  util::Status st = util::internal_error("");
  first->bind([&st](util::Status s) { st = s; });
  fw->run();
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(first->outcome().costs.lookup.nanos(),
            query_ns +
                path_ns(registry, sites.sd_client, ad->proxy_code_bytes));

  // A repeat bind from the same node: the same query, then only the
  // freshness check, because the node keeps the proxy code.
  auto second = fw->make_proxy(sites.sd_client, "SecureMail", defaults());
  st = util::internal_error("");
  second->bind([&st](util::Status s) { st = s; });
  fw->run();
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  EXPECT_EQ(second->outcome().costs.lookup.nanos(),
            query_ns + path_ns(registry, sites.sd_client,
                               runtime::kProxyRevalidateBytes));
  EXPECT_EQ(fw->lookup().proxy_cache_stats().downloads, 1u);
  EXPECT_EQ(fw->lookup().proxy_cache_stats().cache_hits, 1u);
}

TEST_F(GenericFixture, RefreshEnvironmentPicksUpNetworkChanges) {
  register_mail();
  // Initially Seattle nodes have trust 2; raise one to 4 and refresh — the
  // environment view the planner sees must change.
  const auto* env_before = fw->server().environment("SecureMail");
  ASSERT_NE(env_before, nullptr);
  EXPECT_EQ(env_before->node_env(sites.sea_client).get("TrustLevel"),
            spec::PropertyValue::integer(2));

  fw->monitor().set_node_credential(sites.sea_client, "trust",
                                    std::int64_t{4});
  ASSERT_TRUE(fw->server().refresh_environment("SecureMail").is_ok());
  const auto* env_after = fw->server().environment("SecureMail");
  EXPECT_EQ(env_after->node_env(sites.sea_client).get("TrustLevel"),
            spec::PropertyValue::integer(4));
}

}  // namespace
}  // namespace psf
