// Home-side coherence directory (§3.2: "Smock manages replicated component
// instances using a directory-based cache coherence protocol ... at the
// granularity of views").
//
// The home component registers each replica with its view subscription.
// When the home applies an update (whether originated locally or received
// in a replica's flush batch), it asks the directory which other replicas
// conflict — per the service's conflict map — and the directory pushes the
// update to them.
//
// Fan-out data path (DESIGN.md §coherence data path): with the default
// DirectoryTuning, conflicting updates are staged in per-replica outbound
// queues and shipped as one multi-update push request per replica per flush
// epoch; replicas whose staged sets are identical share one immutable
// UpdateBatch body. `DirectoryTuning{.batch_fanout = false}` restores the
// naive one-request-per-replica-per-update path for equivalence checks.
// Replicas whose runtime instance no longer exists are pruned lazily when
// an update would fan out to them.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "coherence/policy.hpp"
#include "coherence/types.hpp"
#include "runtime/smock.hpp"

namespace psf::coherence {

struct DirectoryStats {
  std::uint64_t pushes = 0;  // push requests issued (RPCs)
  std::uint64_t push_updates = 0;
  // RPCs avoided versus the naive fan-out (one RPC per conflicting replica
  // per update) by epoch aggregation.
  std::uint64_t push_rpcs_saved = 0;
  // Replicas beyond the first that reused an identical immutable batch.
  std::uint64_t batches_shared = 0;
  // Dead replicas pruned lazily on push (instance no longer exists()).
  std::uint64_t replicas_evicted = 0;
  std::uint64_t epochs = 0;  // batched flush rounds
};

class CoherenceDirectory {
 public:
  // `push_op`: request op under which replicas apply pushed updates.
  CoherenceDirectory(runtime::SmockRuntime& runtime,
                     runtime::RuntimeInstanceId home, std::string push_op,
                     std::unique_ptr<ConflictMap> conflict_map = nullptr,
                     DirectoryTuning tuning = {});
  ~CoherenceDirectory();

  CoherenceDirectory(const CoherenceDirectory&) = delete;
  CoherenceDirectory& operator=(const CoherenceDirectory&) = delete;

  // Registers/updates a replica's subscription.
  void register_replica(runtime::RuntimeInstanceId replica,
                        ViewSubscription subscription);
  void unregister_replica(runtime::RuntimeInstanceId replica);
  std::size_t replica_count() const { return replicas_.size(); }

  // Expands a replica's subscription with one more key (a view caching a
  // new account, for example).
  void subscribe(runtime::RuntimeInstanceId replica, const std::string& key);

  // Called by the home component for every applied update. Pushes the
  // update to each conflicting replica except `origin` (0 = home-local
  // update, push to all conflicting replicas). Under batched fan-out the
  // push is staged and ships at the end of the current flush epoch.
  void on_update(const Update& update, runtime::RuntimeInstanceId origin = 0);

  // Ships every staged update now (no-op when nothing is staged). The
  // pending epoch timer, if any, is cancelled.
  void flush_staged();

  const DirectoryStats& stats() const { return stats_; }
  const DirectoryTuning& tuning() const { return tuning_; }
  std::size_t staged_updates() const { return staged_.size(); }

 private:
  // True when the replica is live; otherwise evicts it (lazy pruning).
  bool validate_replica(runtime::RuntimeInstanceId replica);
  void push_single(runtime::RuntimeInstanceId replica, const Update& update);
  void send_push(runtime::RuntimeInstanceId replica,
                 std::shared_ptr<UpdateBatch> batch);
  void schedule_epoch_flush();

  runtime::SmockRuntime& runtime_;
  // Held directly: the home component (and so this directory) may be
  // destroyed after the runtime, by a continuation that outlives it.
  sim::Simulator& sim_;
  runtime::RuntimeInstanceId home_;
  std::string push_op_;
  std::unique_ptr<ConflictMap> conflict_map_;
  DirectoryTuning tuning_;
  std::map<runtime::RuntimeInstanceId, ViewSubscription> replicas_;

  // Batched fan-out state: updates staged during the open epoch, and the
  // indices each replica is due to receive.
  std::vector<Update> staged_;
  std::map<runtime::RuntimeInstanceId, std::vector<std::size_t>> pending_;
  bool epoch_scheduled_ = false;
  sim::EventId epoch_event_ = 0;

  DirectoryStats stats_;
};

}  // namespace psf::coherence
