// Coherence layer: policies (write-through, count, time, none), flush
// batching, blocking semantics, directory conflict pushes.
#include <gtest/gtest.h>

#include "coherence/directory.hpp"
#include "coherence/replica.hpp"
#include "spec/builder.hpp"

namespace psf::coherence {
namespace {

struct PayloadBody : runtime::MessageBody {
  int value = 0;
};

// Home-side component that records received sync batches and pushes.
class RecordingHome : public runtime::Component {
 public:
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override {
    if (request.op == "sync") {
      const auto* batch = runtime::body_as<UpdateBatch>(request);
      ASSERT_NE(batch, nullptr);
      batches.push_back(batch->updates.size());
      total_updates += batch->updates.size();
      runtime::Response r;
      r.wire_bytes = 64;
      done(std::move(r));
    } else {
      done(runtime::Response::failure("?"));
    }
  }

  std::vector<std::size_t> batches;
  std::size_t total_updates = 0;
};

class RecordingReplica : public runtime::Component {
 public:
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override {
    if (request.op == "push") {
      const auto* batch = runtime::body_as<UpdateBatch>(request);
      ASSERT_NE(batch, nullptr);
      pushes += batch->updates.size();
      runtime::Response r;
      r.wire_bytes = 32;
      done(std::move(r));
    } else {
      done(runtime::Response::failure("?"));
    }
  }

  std::size_t pushes = 0;
};

struct CoherenceFixture : public ::testing::Test {
  CoherenceFixture() : runtime(sim, network) {
    a = network.add_node("a", 1e6);
    b = network.add_node("b", 1e6);
    network.add_link(a, b, 10e6, sim::Duration::from_millis(50));

    spec = std::make_unique<spec::ServiceSpec>(
        spec::SpecBuilder("Coh")
            .interface("I", {})
            .component("Home")
            .implements("I", {})
            .cpu_per_request(10)
            .done()
            .component("Replica")
            .implements("I", {})
            .cpu_per_request(10)
            .done()
            .build());
    PSF_CHECK(runtime.factories()
                  .register_type("Home",
                                 [] { return std::make_unique<RecordingHome>(); })
                  .is_ok());
    PSF_CHECK(
        runtime.factories()
            .register_type(
                "Replica",
                [] { return std::make_unique<RecordingReplica>(); })
            .is_ok());

    home_id = install("Home", b);
    replica_id = install("Replica", a);
    home = dynamic_cast<RecordingHome*>(
        runtime.instance(home_id).component.get());
    replica = dynamic_cast<RecordingReplica*>(
        runtime.instance(replica_id).component.get());
    PSF_CHECK(runtime.start(home_id).is_ok());
    PSF_CHECK(runtime.start(replica_id).is_ok());
  }

  runtime::RuntimeInstanceId install(const std::string& type,
                                     net::NodeId node) {
    runtime::RuntimeInstanceId out = 0;
    runtime.install(*spec->find_component(type), node, {}, node,
                    [&out](util::Expected<runtime::RuntimeInstanceId> id) {
                      PSF_CHECK(id.has_value());
                      out = *id;
                    });
    sim.run();
    return out;
  }

  // The replica's channel to the home: a direct invoke from the replica's
  // node, standing in for a view's ServerInterface wire.
  ReplicaCoherence::Transport to_home() {
    return [this](runtime::Request request, runtime::ResponseCallback done) {
      runtime.invoke_from_node(a, home_id, std::move(request),
                               std::move(done));
    };
  }

  Update make_update(const std::string& key, int value) {
    Update u;
    u.descriptor.object_key = key;
    u.descriptor.bytes = 100;
    auto body = std::make_shared<PayloadBody>();
    body->value = value;
    u.payload = std::move(body);
    return u;
  }

  sim::Simulator sim;
  net::Network network;
  runtime::SmockRuntime runtime;
  net::NodeId a, b;
  std::unique_ptr<spec::ServiceSpec> spec;
  runtime::RuntimeInstanceId home_id = 0, replica_id = 0;
  RecordingHome* home = nullptr;
  RecordingReplica* replica = nullptr;
};

TEST_F(CoherenceFixture, WriteThroughFlushesEveryUpdate) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::write_through());
  for (int i = 0; i < 3; ++i) {
    auto u = make_update("k", i);
    rc.record_update(u.descriptor, u.payload);
    sim.run();
  }
  EXPECT_EQ(home->batches.size(), 3u);
  EXPECT_EQ(home->total_updates, 3u);
  EXPECT_EQ(rc.pending(), 0u);
  EXPECT_EQ(rc.stats().flushes, 3u);
}

TEST_F(CoherenceFixture, CountBasedFlushesAtThreshold) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::count_based(5));
  for (int i = 0; i < 4; ++i) {
    auto u = make_update("k", i);
    rc.record_update(u.descriptor, u.payload);
  }
  sim.run();
  EXPECT_TRUE(home->batches.empty());
  EXPECT_EQ(rc.pending(), 4u);

  auto u = make_update("k", 4);
  rc.record_update(u.descriptor, u.payload);
  sim.run();
  ASSERT_EQ(home->batches.size(), 1u);
  EXPECT_EQ(home->batches[0], 5u);
  EXPECT_EQ(rc.pending(), 0u);
}

TEST_F(CoherenceFixture, UpdatesDuringFlushRideTheNextBatch) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::count_based(2));
  // Two updates trigger a flush; while it is in flight (100+ ms RTT), two
  // more arrive — they must ship in the follow-up batch, not be lost.
  for (int i = 0; i < 2; ++i) {
    auto u = make_update("k", i);
    rc.record_update(u.descriptor, u.payload);
  }
  EXPECT_TRUE(rc.flushing());
  for (int i = 2; i < 4; ++i) {
    auto u = make_update("k", i);
    rc.record_update(u.descriptor, u.payload);
  }
  sim.run();
  EXPECT_EQ(home->total_updates, 4u);
  ASSERT_EQ(home->batches.size(), 2u);
  EXPECT_EQ(home->batches[0], 2u);
  EXPECT_EQ(home->batches[1], 2u);
}

TEST_F(CoherenceFixture, TimeBasedFlushesPeriodically) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::time_based(
                          sim::Duration::from_millis(500)));
  auto u = make_update("k", 1);
  rc.record_update(u.descriptor, u.payload);
  // Nothing before the period elapses.
  sim.run_until(sim::Time::zero() + sim::Duration::from_millis(499));
  EXPECT_TRUE(home->batches.empty());
  sim.run_until(sim::Time::zero() + sim::Duration::from_millis(800));
  EXPECT_EQ(home->batches.size(), 1u);
  // Empty periods do not flush.
  sim.run_until(sim::Time::zero() + sim::Duration::from_millis(2000));
  EXPECT_EQ(home->batches.size(), 1u);
}

TEST_F(CoherenceFixture, NonePolicyOnlyFlushesExplicitly) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::none());
  for (int i = 0; i < 10; ++i) {
    auto u = make_update("k", i);
    rc.record_update(u.descriptor, u.payload);
  }
  sim.run();
  EXPECT_TRUE(home->batches.empty());
  EXPECT_EQ(rc.pending(), 10u);

  bool acked = false;
  rc.flush([&] { acked = true; });
  sim.run();
  EXPECT_TRUE(acked);
  ASSERT_EQ(home->batches.size(), 1u);
  EXPECT_EQ(home->batches[0], 10u);
}

TEST_F(CoherenceFixture, EmptyFlushInvokesCallbackImmediately) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::none());
  bool acked = false;
  rc.flush([&] { acked = true; });
  EXPECT_TRUE(acked);
  EXPECT_EQ(rc.stats().flushes, 0u);
}

TEST_F(CoherenceFixture, FlushListenerFiresAfterCompletion) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::write_through());
  int listener_calls = 0;
  rc.set_flush_listener([&] { ++listener_calls; });
  auto u = make_update("k", 1);
  rc.record_update(u.descriptor, u.payload);
  EXPECT_EQ(listener_calls, 0);  // in flight
  sim.run();
  EXPECT_EQ(listener_calls, 1);
}

TEST_F(CoherenceFixture, StatsTrackVolume) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::count_based(3));
  for (int i = 0; i < 7; ++i) {
    auto u = make_update("k", i);
    rc.record_update(u.descriptor, u.payload);
    sim.run();
  }
  EXPECT_EQ(rc.stats().updates_recorded, 7u);
  EXPECT_EQ(rc.stats().flushes, 2u);
  EXPECT_EQ(rc.stats().updates_flushed, 6u);
  EXPECT_GT(rc.stats().bytes_flushed, 0u);
  EXPECT_EQ(rc.pending(), 1u);
}

// ---- directory ---------------------------------------------------------

TEST_F(CoherenceFixture, DirectoryPushesToConflictingReplicas) {
  CoherenceDirectory dir(runtime, home_id, "push");
  ViewSubscription sub;
  sub.object_keys = {"alice"};
  dir.register_replica(replica_id, sub);

  dir.on_update(make_update("alice", 1));
  sim.run();
  EXPECT_EQ(replica->pushes, 1u);

  // Non-subscribed key: no push.
  dir.on_update(make_update("bob", 2));
  sim.run();
  EXPECT_EQ(replica->pushes, 1u);
}

TEST_F(CoherenceFixture, DirectorySkipsOrigin) {
  CoherenceDirectory dir(runtime, home_id, "push");
  ViewSubscription sub;
  sub.wildcard = true;
  dir.register_replica(replica_id, sub);

  dir.on_update(make_update("alice", 1), /*origin=*/replica_id);
  sim.run();
  EXPECT_EQ(replica->pushes, 0u);  // the writer is not re-notified
}

TEST_F(CoherenceFixture, DirectoryToleratesDeadReplicas) {
  CoherenceDirectory dir(runtime, home_id, "push");
  ViewSubscription sub;
  sub.wildcard = true;
  dir.register_replica(replica_id, sub);
  ASSERT_TRUE(runtime.uninstall(replica_id).is_ok());
  dir.on_update(make_update("x", 1));  // must not crash
  sim.run();
  EXPECT_EQ(dir.stats().pushes, 0u);
}

TEST(ViewSubscriptionTest, CoversSubscribedKeysOrEverythingWhenWildcard) {
  ViewSubscription sub;
  sub.object_keys = {"a", "b"};
  EXPECT_TRUE(sub.covers("a"));
  EXPECT_FALSE(sub.covers("c"));
  ViewSubscription wildcard;
  wildcard.wildcard = true;
  EXPECT_TRUE(wildcard.covers("anything"));
}

TEST(PolicyTest, ToString) {
  EXPECT_EQ(CoherencePolicy::none().to_string(), "none");
  EXPECT_EQ(CoherencePolicy::write_through().to_string(), "write-through");
  EXPECT_EQ(CoherencePolicy::count_based(500).to_string(),
            "count-based(500)");
  EXPECT_EQ(CoherencePolicy::time_based(sim::Duration::from_millis(250))
                .to_string(),
            "time-based(250ms)");
}

}  // namespace
}  // namespace psf::coherence
