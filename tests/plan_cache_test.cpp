// Access-path plan cache and request coalescing: warm hits replay cold
// outcomes bit-for-bit, epoch bumps invalidate, hit-time validation catches
// retired/saturated instances, and a thundering herd plans exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/case_study.hpp"
#include "core/framework.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "mail/types.hpp"
#include "runtime/plan_cache.hpp"

namespace psf {
namespace {

struct PlanCacheFixture : public ::testing::Test {
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
  }

  planner::PlanRequest defaults(std::int64_t trust = 4, double rate = 50.0) {
    planner::PlanRequest d;
    d.interface_name = "ClientInterface";
    d.required_properties.emplace_back("TrustLevel",
                                       spec::PropertyValue::integer(trust));
    d.request_rate_rps = rate;
    return d;
  }

  runtime::AccessOutcome bind_ok(net::NodeId node, planner::PlanRequest d) {
    auto proxy = fw->make_proxy(node, "SecureMail", d);
    util::Status status = util::internal_error("incomplete");
    proxy->bind([&status](util::Status st) { status = st; });
    fw->run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return proxy->outcome();
  }

  const runtime::PlanCacheTelemetry& telemetry() {
    return fw->server().access_telemetry();
  }

  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
};

// ---- fingerprint unit behavior --------------------------------------------

TEST(PlanFingerprintTest, RateBucketsArePowerOfTwoCeilings) {
  EXPECT_EQ(runtime::plan_rate_bucket(0.0), 0u);
  EXPECT_EQ(runtime::plan_rate_bucket(-3.0), 0u);
  EXPECT_EQ(runtime::plan_rate_bucket(1.0), 1u);
  EXPECT_EQ(runtime::plan_rate_bucket(50.0), 64u);
  EXPECT_EQ(runtime::plan_rate_bucket(64.0), 64u);
  EXPECT_EQ(runtime::plan_rate_bucket(65.0), 128u);
}

TEST(PlanFingerprintTest, PropertyOrderDoesNotSplitTheCache) {
  planner::PlanRequest a;
  a.interface_name = "I";
  a.client_node = net::NodeId{3};
  a.required_properties.emplace_back("TrustLevel",
                                     spec::PropertyValue::integer(4));
  a.required_properties.emplace_back("Encrypted",
                                     spec::PropertyValue::boolean(true));
  planner::PlanRequest b = a;
  std::swap(b.required_properties[0], b.required_properties[1]);
  EXPECT_EQ(runtime::plan_fingerprint(a), runtime::plan_fingerprint(b));

  // Rates in the same bucket share a fingerprint; different buckets split.
  a.request_rate_rps = 40.0;
  b.request_rate_rps = 60.0;
  EXPECT_EQ(runtime::plan_fingerprint(a), runtime::plan_fingerprint(b));
  b.request_rate_rps = 300.0;
  EXPECT_NE(runtime::plan_fingerprint(a), runtime::plan_fingerprint(b));

  // Search shape never affects the planner's result, so it must not split
  // the cache either.
  b = a;
  b.bound_pruning = false;
  EXPECT_EQ(runtime::plan_fingerprint(a), runtime::plan_fingerprint(b));
}

// ---- warm path -------------------------------------------------------------

TEST_F(PlanCacheFixture, WarmHitSkipsPlanningAndDeployment) {
  auto cold = bind_ok(sites.sd_client, defaults());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.search.candidates_examined, 0u);
  EXPECT_GT(cold.costs.planning.nanos(), 0);
  const std::size_t instances_after_cold = fw->runtime().instance_count();

  auto warm = bind_ok(sites.sd_client, defaults());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.coalesced);
  // Zero planner candidates examined and no new instances: the second
  // client shares the cached access path end to end.
  EXPECT_EQ(warm.search.candidates_examined, 0u);
  EXPECT_EQ(warm.costs.planning.nanos(), 0);
  EXPECT_EQ(warm.costs.deployment.nanos(), 0);
  EXPECT_EQ(fw->runtime().instance_count(), instances_after_cold);
  EXPECT_EQ(warm.entry, cold.entry);
  EXPECT_EQ(warm.instances, cold.instances);

  EXPECT_EQ(telemetry().hits, 1u);
  EXPECT_EQ(telemetry().misses, 1u);
  EXPECT_EQ(fw->server().plan_cache_size("SecureMail"), 1u);

  // Load accounting matches the cold path: two 50 rps clients on the view.
  bool found = false;
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    if (inst.component->name == "ViewMailServer") {
      found = true;
      EXPECT_NEAR(inst.current_load_rps, 100.0, 1e-9);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PlanCacheFixture, DifferentRequestsMiss) {
  auto cold = bind_ok(sites.sd_client, defaults());
  ASSERT_FALSE(cold.cache_hit);

  // Different rate bucket: cold plan (the planner still reuses the pool).
  auto other_rate = bind_ok(sites.sd_client, defaults(4, 300.0));
  EXPECT_FALSE(other_rate.cache_hit);

  // Different client node: cold plan.
  auto other_site = bind_ok(sites.ny_client, defaults());
  EXPECT_FALSE(other_site.cache_hit);
  EXPECT_EQ(telemetry().hits, 0u);
}

// ---- equivalence (acceptance criterion) ------------------------------------

// A world identical to the fixture's, built independently so a cache-hit
// outcome can be compared against a *cold* plan computed in a universe where
// the cache never interfered.
struct World {
  core::CaseStudySites sites;
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;

  World() {
    net::Network network = core::case_study_network(&sites);
    core::FrameworkOptions options;
    options.lookup_node = sites.new_york[0];
    options.server_node = sites.new_york[0];
    fw = std::make_unique<core::Framework>(std::move(network), options);
    config = std::make_shared<mail::MailServiceConfig>();
    PSF_CHECK(mail::register_mail_factories(fw->runtime().factories(), config)
                  .is_ok());
    PSF_CHECK(fw->register_service(mail::mail_registration(sites.mail_home),
                                   mail::mail_translator())
                  .is_ok());
  }

  runtime::AccessOutcome bind(net::NodeId node, planner::PlanRequest d) {
    auto proxy = fw->make_proxy(node, "SecureMail", d);
    util::Status status = util::internal_error("incomplete");
    proxy->bind([&status](util::Status st) { status = st; });
    fw->run();
    PSF_CHECK_MSG(status.is_ok(), status.to_string());
    return proxy->outcome();
  }
};

TEST_F(PlanCacheFixture, HitIsBitIdenticalToColdPlanUnderUnchangedEnvironment) {
  planner::PlanRequest request = defaults();
  request.interface_name = "ClientInterface";

  // Reference universe: one cold plan, no cache involvement.
  World reference;
  auto ref_cold = reference.bind(reference.sites.sd_client, request);
  const std::string ref_rendering =
      ref_cold.plan.to_string(reference.fw->network());

  // Cache universe (the fixture): cold plan, then a hit.
  auto cold = bind_ok(sites.sd_client, request);
  auto warm = bind_ok(sites.sd_client, request);
  ASSERT_TRUE(warm.cache_hit);

  // The cold access replays in a fresh universe: the same search and the
  // same simulated planning charge.
  EXPECT_EQ(cold.search.to_string(), ref_cold.search.to_string());
  EXPECT_EQ(cold.costs.planning.nanos(), ref_cold.costs.planning.nanos());

  // Placements + linkages of the hit are bit-identical to the cold plan of
  // the untouched universe (same placements, nodes, factors, wires, routes).
  EXPECT_EQ(warm.plan.to_string(fw->network()), ref_rendering);
  ASSERT_EQ(warm.plan.placements.size(), ref_cold.plan.placements.size());
  for (std::size_t i = 0; i < warm.plan.placements.size(); ++i) {
    EXPECT_EQ(warm.plan.placements[i].component->name,
              ref_cold.plan.placements[i].component->name);
    EXPECT_EQ(warm.plan.placements[i].node,
              ref_cold.plan.placements[i].node);
    EXPECT_EQ(warm.plan.placements[i].factors,
              ref_cold.plan.placements[i].factors);
  }
  ASSERT_EQ(warm.plan.wires.size(), ref_cold.plan.wires.size());
  for (std::size_t i = 0; i < warm.plan.wires.size(); ++i) {
    EXPECT_EQ(warm.plan.wires[i].client, ref_cold.plan.wires[i].client);
    EXPECT_EQ(warm.plan.wires[i].server, ref_cold.plan.wires[i].server);
    EXPECT_EQ(warm.plan.wires[i].interface_name,
              ref_cold.plan.wires[i].interface_name);
  }

  // After an epoch bump that changes the environment, the replan differs
  // appropriately: securing the WAN link removes the Encryptor tunnel.
  fw->enable_adaptation("SecureMail");
  auto lid =
      fw->network().link_between(sites.san_diego[0], sites.new_york[0]);
  ASSERT_TRUE(lid.has_value());
  fw->monitor().set_link_credential(*lid, "secure", true);

  auto replanned = bind_ok(sites.sd_client, request);
  EXPECT_FALSE(replanned.cache_hit);
  std::set<std::string> comps;
  for (const auto& p : replanned.plan.placements) {
    comps.insert(p.component->name);
  }
  EXPECT_TRUE(comps.count("Encryptor") == 0)
      << replanned.plan.to_string(fw->network());
  EXPECT_NE(replanned.plan.to_string(fw->network()), ref_rendering);
}

// ---- invalidation ----------------------------------------------------------

TEST_F(PlanCacheFixture, MonitorChangeAloneInvalidates) {
  // No enable_adaptation: only the Framework's attach_monitor wiring bumps
  // the epoch. The environment view is stale but the cache must not replay
  // a pre-change plan.
  auto cold = bind_ok(sites.sd_client, defaults());
  ASSERT_FALSE(cold.cache_hit);
  const std::uint64_t epoch_before =
      fw->server().environment_epoch("SecureMail");

  auto lid =
      fw->network().link_between(sites.san_diego[0], sites.new_york[0]);
  ASSERT_TRUE(lid.has_value());
  fw->monitor().set_link_bandwidth(*lid, 5e6);
  EXPECT_GT(fw->server().environment_epoch("SecureMail"), epoch_before);
  EXPECT_EQ(fw->monitor().change_count(), 1u);

  auto after = bind_ok(sites.sd_client, defaults());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_GT(after.search.candidates_examined, 0u);
  EXPECT_GE(telemetry().stale_epoch_evictions, 1u);
  EXPECT_GE(telemetry().invalidations, 1u);
  EXPECT_EQ(telemetry().hits, 0u);
}

TEST_F(PlanCacheFixture, RefreshEnvironmentInvalidates) {
  auto cold = bind_ok(sites.sd_client, defaults());
  ASSERT_FALSE(cold.cache_hit);
  ASSERT_TRUE(fw->server().refresh_environment("SecureMail").is_ok());
  auto after = bind_ok(sites.sd_client, defaults());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_GE(telemetry().epoch_bumps, 1u);
}

TEST_F(PlanCacheFixture, ForgottenInstanceIsNeverHandedOut) {
  auto cold = bind_ok(sites.sd_client, defaults());
  // Locate the shared view instance the cached plan references.
  runtime::RuntimeInstanceId view_id = 0;
  for (std::size_t i = 0; i < cold.plan.placements.size(); ++i) {
    if (cold.plan.placements[i].component->name == "ViewMailServer") {
      view_id = cold.instances[i];
    }
  }
  ASSERT_NE(view_id, 0u);

  // Redeployment retires the view: the cache entry must go with it.
  ASSERT_TRUE(fw->server().forget_instance("SecureMail", view_id).is_ok());
  EXPECT_EQ(fw->server().plan_cache_size("SecureMail"), 0u);
  EXPECT_GE(telemetry().invalidations, 1u);

  // The next identical access replans cold and deploys a fresh view (the
  // old one is no longer poolable).
  auto after = bind_ok(sites.sd_client, defaults());
  EXPECT_FALSE(after.cache_hit);
  for (std::size_t i = 0; i < after.plan.placements.size(); ++i) {
    EXPECT_NE(after.instances[i], view_id);
  }
}

TEST_F(PlanCacheFixture, ForgetInstanceEvictsEveryReferencingEntry) {
  // Two different fingerprints (different client nodes) whose plans share
  // the pooled view: one forget_instance call must evict them both, not
  // just the entry that happened to be built first.
  auto first = bind_ok(sites.sd_client, defaults());
  ASSERT_FALSE(first.cache_hit);
  auto second = bind_ok(sites.san_diego[1], defaults());
  ASSERT_FALSE(second.cache_hit);
  ASSERT_EQ(fw->server().plan_cache_size("SecureMail"), 2u);

  runtime::RuntimeInstanceId view_id = 0;
  for (std::size_t i = 0; i < first.plan.placements.size(); ++i) {
    if (first.plan.placements[i].component->name == "ViewMailServer") {
      view_id = first.instances[i];
    }
  }
  ASSERT_NE(view_id, 0u);
  // The second client's plan reuses the pooled view, so both entries
  // reference it.
  ASSERT_NE(std::find(second.instances.begin(), second.instances.end(),
                      view_id),
            second.instances.end());

  ASSERT_TRUE(fw->server().forget_instance("SecureMail", view_id).is_ok());
  EXPECT_EQ(fw->server().plan_cache_size("SecureMail"), 0u);

  auto rebound_a = bind_ok(sites.sd_client, defaults());
  auto rebound_b = bind_ok(sites.san_diego[1], defaults());
  EXPECT_FALSE(rebound_a.cache_hit);
  for (auto id : rebound_a.instances) EXPECT_NE(id, view_id);
  for (auto id : rebound_b.instances) EXPECT_NE(id, view_id);
}

TEST_F(PlanCacheFixture, DeadEntryInstanceEvictsOnHit) {
  auto cold = bind_ok(sites.sd_client, defaults());
  // The entry is client-private and outside the pool; retiring it (as the
  // redeployment manager does after grafting) leaves the cache entry
  // pointing at a dead binding. The hit-time liveness check must catch it.
  ASSERT_TRUE(fw->runtime().uninstall(cold.entry).is_ok());

  auto after = bind_ok(sites.sd_client, defaults());
  EXPECT_FALSE(after.cache_hit);
  EXPECT_NE(after.entry, cold.entry);
  EXPECT_TRUE(fw->runtime().exists(after.entry));
  EXPECT_EQ(telemetry().liveness_evictions, 1u);
  EXPECT_EQ(telemetry().hits, 0u);
}

TEST_F(PlanCacheFixture, SaturatedInstanceForcesColdReplan) {
  // ViewMailServer capacity is 500 rps; ten 50 rps clients fill it — one
  // cold plan plus nine cache hits.
  auto first = bind_ok(sites.sd_client, defaults());
  ASSERT_FALSE(first.cache_hit);
  for (int i = 0; i < 9; ++i) {
    auto warm = bind_ok(sites.sd_client, defaults());
    ASSERT_TRUE(warm.cache_hit) << "client " << i;
  }

  // The eleventh would oversubscribe the shared view: the hit-time capacity
  // check evicts the entry and the cold replan deploys a second view.
  auto eleventh = bind_ok(sites.sd_client, defaults());
  EXPECT_FALSE(eleventh.cache_hit);
  EXPECT_EQ(telemetry().capacity_evictions, 1u);

  std::size_t views = 0;
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    if (inst.component->name == "ViewMailServer") {
      ++views;
      EXPECT_LE(inst.current_load_rps, 500.0 + 1e-9);
    }
  }
  EXPECT_EQ(views, 2u);

  // The replacement plan is cached in turn: the twelfth client rides it.
  auto twelfth = bind_ok(sites.sd_client, defaults());
  EXPECT_TRUE(twelfth.cache_hit);
  EXPECT_EQ(twelfth.entry, eleventh.entry);
}

// ---- coalescing ------------------------------------------------------------

TEST_F(PlanCacheFixture, ConcurrentIdenticalAccessesPlanOnce) {
  constexpr int kBurst = 8;
  planner::PlanRequest request = defaults();
  request.client_node = sites.sd_client;

  std::vector<runtime::AccessOutcome> outcomes;
  int failures = 0;
  for (int i = 0; i < kBurst; ++i) {
    fw->server().request_access(
        "SecureMail", request,
        [&](util::Expected<runtime::AccessOutcome> outcome) {
          if (outcome) {
            outcomes.push_back(std::move(outcome).value());
          } else {
            ++failures;
          }
        });
  }
  fw->run();

  ASSERT_EQ(failures, 0);
  ASSERT_EQ(outcomes.size(), static_cast<std::size_t>(kBurst));
  int cold = 0, coalesced = 0;
  for (const auto& o : outcomes) {
    if (o.coalesced) {
      ++coalesced;
    } else {
      ++cold;
    }
    EXPECT_EQ(o.entry, outcomes.front().entry);
  }
  // Exactly one planner run for the whole burst.
  EXPECT_EQ(cold, 1);
  EXPECT_EQ(coalesced, kBurst - 1);
  EXPECT_EQ(telemetry().coalesced, static_cast<std::uint64_t>(kBurst - 1));
  EXPECT_EQ(telemetry().misses, 1u);

  // Every rider's load is accounted on the shared view: 8 x 50 rps.
  for (const auto& inst : fw->server().existing_instances("SecureMail")) {
    if (inst.component->name == "ViewMailServer") {
      EXPECT_NEAR(inst.current_load_rps, 400.0, 1e-9);
    }
  }
}

TEST_F(PlanCacheFixture, CrashEvictsCachedPlansMidCoalescedBurst) {
  // Warm the cache with an SD-client chain, then crash the hosting node in
  // the middle of a coalesced burst: every cached plan referencing a
  // tombstoned instance must be forget_instance-evicted eagerly (not lazily
  // at the next hit), and the followers must be served by a fresh plan that
  // avoids the dead node.
  planner::PlanRequest request = defaults();
  request.client_node = sites.sd_client;
  auto cold = bind_ok(sites.sd_client, request);
  ASSERT_FALSE(cold.cache_hit);
  ASSERT_GE(fw->server().plan_cache_size("SecureMail"), 1u);

  // Start a burst from New York (its chain reuses only the NY MailServer, so
  // the crash cannot strand it), crash mid-flight, then let the coalesced
  // followers drain.
  planner::PlanRequest survivor = defaults();
  survivor.client_node = sites.ny_client;
  std::vector<runtime::AccessOutcome> outcomes;
  int failures = 0;
  for (int i = 0; i < 4; ++i) {
    fw->server().request_access(
        "SecureMail", survivor,
        [&](util::Expected<runtime::AccessOutcome> outcome) {
          if (outcome) {
            outcomes.push_back(std::move(outcome).value());
          } else {
            ++failures;
          }
        });
  }
  fw->fail_node(sites.sd_client);
  // Eager eviction: the cached plans referencing tombstoned instances are
  // gone immediately after the failure report, before any further hit.
  EXPECT_EQ(fw->server().plan_cache_size("SecureMail"), 0u);

  fw->run();
  ASSERT_EQ(failures, 0);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& o : outcomes) {
    for (const auto& p : o.plan.placements) {
      EXPECT_NE(p.node, sites.sd_client);
    }
    for (auto id : o.instances) {
      EXPECT_TRUE(fw->runtime().exists(id));
    }
  }

  // A fresh SD-site bind must replan cold (its cached plan was evicted) and
  // route around the dead node.
  auto rebound = bind_ok(sites.san_diego[1], defaults());
  EXPECT_FALSE(rebound.cache_hit);
  for (const auto& p : rebound.plan.placements) {
    EXPECT_NE(p.node, sites.sd_client);
  }
}

}  // namespace
}  // namespace psf
