// Coherence data path: stop-and-wait write-back at its exact wire cost,
// rejected-flush requeue, batched directory fan-out with epoch aggregation
// and lazy dead-replica pruning (DESIGN.md §6d).
#include <gtest/gtest.h>

#include "coherence/directory.hpp"
#include "coherence/replica.hpp"
#include "spec/builder.hpp"

namespace psf::coherence {
namespace {

struct PayloadBody : runtime::MessageBody {
  int value = 0;
};

// Home-side component recording batch sizes and per-update payload values in
// arrival order; can be told to reject the next N sync requests.
class RecordingHome : public runtime::Component {
 public:
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override {
    if (request.op != "sync") {
      done(runtime::Response::failure("?"));
      return;
    }
    const auto* batch = runtime::body_as<UpdateBatch>(request);
    ASSERT_NE(batch, nullptr);
    if (reject_next > 0) {
      --reject_next;
      done(runtime::Response::failure("home refused the batch"));
      return;
    }
    batches.push_back(batch->updates.size());
    for (const Update& u : batch->updates) {
      const auto* p = dynamic_cast<const PayloadBody*>(u.payload.get());
      values.push_back(p == nullptr ? -1 : p->value);
    }
    runtime::Response r;
    r.wire_bytes = 64;
    done(std::move(r));
  }

  std::size_t reject_next = 0;
  std::vector<std::size_t> batches;
  std::vector<int> values;
};

class RecordingReplica : public runtime::Component {
 public:
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override {
    if (request.op != "push") {
      done(runtime::Response::failure("?"));
      return;
    }
    const auto* batch = runtime::body_as<UpdateBatch>(request);
    ASSERT_NE(batch, nullptr);
    rpcs.push_back(batch->updates.size());
    for (const Update& u : batch->updates) {
      const auto* p = dynamic_cast<const PayloadBody*>(u.payload.get());
      values.push_back(p == nullptr ? -1 : p->value);
    }
    runtime::Response r;
    r.wire_bytes = 32;
    done(std::move(r));
  }

  std::size_t updates_received() const { return values.size(); }

  std::vector<std::size_t> rpcs;  // one entry per push request
  std::vector<int> values;
};

struct PipelineFixture : public ::testing::Test {
  PipelineFixture() : runtime(sim, network) {
    a = network.add_node("a", 1e6);
    b = network.add_node("b", 1e6);
    network.add_link(a, b, 10e6, sim::Duration::from_millis(50));

    spec = std::make_unique<spec::ServiceSpec>(
        spec::SpecBuilder("CohPipe")
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
                  .register_type(
                      "Home", [] { return std::make_unique<RecordingHome>(); })
                  .is_ok());
    PSF_CHECK(runtime.factories()
                  .register_type(
                      "Replica",
                      [] { return std::make_unique<RecordingReplica>(); })
                  .is_ok());

    home_id = install("Home", b);
    replica_id = install("Replica", a);
    replica2_id = install("Replica", a);
    home = dynamic_cast<RecordingHome*>(
        runtime.instance(home_id).component.get());
    replica = dynamic_cast<RecordingReplica*>(
        runtime.instance(replica_id).component.get());
    replica2 = dynamic_cast<RecordingReplica*>(
        runtime.instance(replica2_id).component.get());
    PSF_CHECK(runtime.start(home_id).is_ok());
    PSF_CHECK(runtime.start(replica_id).is_ok());
    PSF_CHECK(runtime.start(replica2_id).is_ok());
  }

  // The replica's channel to the home: a direct invoke from the replica's
  // node, standing in for a view's ServerInterface wire.
  ReplicaCoherence::Transport to_home() {
    return [this](runtime::Request request, runtime::ResponseCallback done) {
      runtime.invoke_from_node(a, home_id, std::move(request),
                               std::move(done));
    };
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

  Update make_update(const std::string& key, int value) {
    Update u;
    u.descriptor.object_key = key;
    u.descriptor.bytes = 100;
    auto body = std::make_shared<PayloadBody>();
    body->value = value;
    u.payload = std::move(body);
    return u;
  }

  void record(ReplicaCoherence& rc, const std::string& key, int value) {
    auto u = make_update(key, value);
    rc.record_update(u.descriptor, u.payload);
  }

  sim::Simulator sim;
  net::Network network;
  runtime::SmockRuntime runtime;
  net::NodeId a, b;
  std::unique_ptr<spec::ServiceSpec> spec;
  runtime::RuntimeInstanceId home_id = 0, replica_id = 0, replica2_id = 0;
  RecordingHome* home = nullptr;
  RecordingReplica* replica = nullptr;
  RecordingReplica* replica2 = nullptr;
};

// ---- stop-and-wait write-back --------------------------------------------

// Write-through is the classic stop-and-wait: one single-update flush per
// recorded update, each batch costing 64 (envelope) + bytes + 32 (per-update
// framing) on the wire, with the replica flushing until the ack lands.
TEST_F(PipelineFixture, WriteThroughIsStopAndWaitAtExactWireCost) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::write_through());
  constexpr int kUpdates = 5;
  for (int i = 0; i < kUpdates; ++i) {
    record(rc, "k", i);
    EXPECT_TRUE(rc.flushing());
    sim.run();
    EXPECT_FALSE(rc.flushing());
  }
  EXPECT_EQ(rc.stats().flushes, 5u);
  EXPECT_EQ(rc.stats().updates_flushed, 5u);
  EXPECT_EQ(rc.stats().bytes_flushed, 5u * (64u + 100u + 32u));
  EXPECT_EQ(home->values, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST_F(PipelineFixture, StopAndWaitAccumulatesBlockedTime) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::write_through());
  record(rc, "k", 0);
  EXPECT_TRUE(rc.flushing());
  sim.run();
  // The 50 ms/hop link makes the ack round trip >= 100 ms of wall block.
  EXPECT_GE(rc.stats().blocked_on_flush_ms, 100.0);
}

TEST_F(PipelineFixture, TimeBasedTimerOnEmptyQueueNeverFlushes) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::time_based(
                          sim::Duration::from_millis(100)));
  sim.run_until(sim::Time::zero() + sim::Duration::from_seconds(1));
  EXPECT_EQ(rc.stats().flushes, 0u);
  EXPECT_FALSE(rc.flushing());
  EXPECT_EQ(rc.stats().blocked_on_flush_ms, 0.0);
}

TEST_F(PipelineFixture, ReentrantFlushFromListenerTerminates) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::none());
  int listener_calls = 0;
  rc.set_flush_listener([&] {
    ++listener_calls;
    rc.flush();  // a view draining deferred work can re-enter flush
  });
  record(rc, "k", 0);
  rc.flush();
  record(rc, "k", 1);  // lands while the first batch is in flight
  sim.run();
  // First completion re-entered flush for the second update; the second
  // completion found an empty queue and stopped.
  EXPECT_EQ(rc.stats().flushes, 2u);
  EXPECT_EQ(listener_calls, 2);
  EXPECT_EQ(home->values, (std::vector<int>{0, 1}));
  EXPECT_EQ(rc.pending(), 0u);
}

// ---- rejected-flush requeue ---------------------------------------------

TEST_F(PipelineFixture, RejectedFlushRequeuesAtFrontPreservingOrder) {
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync",
                      CoherencePolicy::none());
  home->reject_next = 1;
  record(rc, "k", 0);
  record(rc, "k", 1);
  rc.flush();
  record(rc, "k", 2);  // arrives while the doomed batch is in flight
  sim.run();
  EXPECT_EQ(rc.stats().flushes_rejected, 1u);
  EXPECT_EQ(rc.stats().flushes_requeued, 1u);
  EXPECT_EQ(rc.stats().updates_requeued, 2u);
  EXPECT_EQ(rc.pending(), 3u);  // requeued batch sits ahead of update 2

  rc.flush();
  sim.run();
  ASSERT_EQ(home->batches.size(), 1u);
  EXPECT_EQ(home->batches[0], 3u);
  EXPECT_EQ(home->values, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(rc.stats().updates_dropped, 0u);
}

TEST_F(PipelineFixture, RetriesAreBoundedThenTheBatchIsDropped) {
  CoherencePolicy policy = CoherencePolicy::write_through();
  policy.max_flush_retries = 2;
  ReplicaCoherence rc(runtime, replica_id, to_home(), "sync", policy);
  home->reject_next = 100;  // the home never accepts
  record(rc, "k", 0);
  sim.run();
  // Initial send + 2 retries, then the update is dropped — not retried
  // forever.
  EXPECT_EQ(rc.stats().flushes, 3u);
  EXPECT_EQ(rc.stats().flushes_rejected, 3u);
  EXPECT_EQ(rc.stats().flushes_requeued, 2u);
  EXPECT_EQ(rc.stats().updates_dropped, 1u);
  EXPECT_EQ(rc.pending(), 0u);
  EXPECT_TRUE(home->values.empty());

  // The replica recovers: later updates flush normally once the home heals.
  home->reject_next = 0;
  record(rc, "k", 7);
  sim.run();
  EXPECT_EQ(home->values, (std::vector<int>{7}));
  EXPECT_EQ(rc.stats().updates_dropped, 1u);
}

// ---- batched directory fan-out ------------------------------------------

TEST_F(PipelineFixture, EpochAggregationShipsOneRpcPerReplica) {
  CoherenceDirectory dir(runtime, home_id, "push");
  ViewSubscription sub;
  sub.wildcard = true;
  dir.register_replica(replica_id, sub);
  dir.register_replica(replica2_id, sub);

  // Three updates in one event cascade (e.g. one relayed sync batch).
  for (int i = 0; i < 3; ++i) dir.on_update(make_update("k", i));
  EXPECT_EQ(dir.staged_updates(), 3u);
  sim.run();

  ASSERT_EQ(replica->rpcs, (std::vector<std::size_t>{3u}));
  ASSERT_EQ(replica2->rpcs, (std::vector<std::size_t>{3u}));
  EXPECT_EQ(replica->values, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(dir.stats().pushes, 2u);
  EXPECT_EQ(dir.stats().push_updates, 6u);
  // The second replica reused the first one's immutable batch body.
  EXPECT_EQ(dir.stats().batches_shared, 1u);
  EXPECT_EQ(dir.stats().epochs, 1u);
  EXPECT_EQ(dir.staged_updates(), 0u);
}

TEST_F(PipelineFixture, DeadReplicaIsPrunedLazilyOnPush) {
  CoherenceDirectory dir(runtime, home_id, "push");
  ViewSubscription sub;
  sub.wildcard = true;
  dir.register_replica(replica_id, sub);
  dir.register_replica(replica2_id, sub);
  ASSERT_TRUE(runtime.uninstall(replica2_id).is_ok());

  dir.on_update(make_update("k", 1));
  sim.run();
  EXPECT_EQ(dir.stats().replicas_evicted, 1u);
  EXPECT_EQ(dir.replica_count(), 1u);
  EXPECT_EQ(replica->updates_received(), 1u);
  // The evicted replica is not re-validated on later updates.
  dir.on_update(make_update("k", 2));
  sim.run();
  EXPECT_EQ(dir.stats().replicas_evicted, 1u);
  EXPECT_EQ(dir.stats().pushes, 2u);
}

TEST_F(PipelineFixture, UninstallWhilePushInFlightFailsDeliveryGracefully) {
  CoherenceDirectory dir(runtime, home_id, "push");
  ViewSubscription sub;
  sub.wildcard = true;
  dir.register_replica(replica_id, sub);

  dir.on_update(make_update("k", 1));
  dir.flush_staged();  // the RPC leaves before the replica dies
  ASSERT_TRUE(runtime.uninstall(replica_id).is_ok());
  replica = nullptr;  // the component object is gone with the instance
  sim.run();          // delivery fails; the warn-only callback must not crash
  EXPECT_EQ(dir.stats().pushes, 1u);

  dir.on_update(make_update("k", 2));
  sim.run();
  EXPECT_EQ(dir.stats().replicas_evicted, 1u);
  EXPECT_EQ(dir.stats().pushes, 1u);  // no further RPC to the dead replica
}

}  // namespace
}  // namespace psf::coherence
