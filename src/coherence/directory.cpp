// detlint:ordered-output — fan-out batch order reaches replica update traces.
#include "coherence/directory.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace psf::coherence {

CoherenceDirectory::CoherenceDirectory(
    runtime::SmockRuntime& runtime, runtime::RuntimeInstanceId home,
    std::string push_op, std::unique_ptr<ConflictMap> conflict_map,
    DirectoryTuning tuning)
    : runtime_(runtime),
      sim_(runtime.simulator()),
      home_(home),
      push_op_(std::move(push_op)),
      conflict_map_(conflict_map ? std::move(conflict_map)
                                 : std::make_unique<ConflictMap>()),
      tuning_(tuning) {}

CoherenceDirectory::~CoherenceDirectory() {
  // The home component may be torn down with an epoch flush still pending;
  // the event captures `this` and must not fire afterwards.
  if (epoch_scheduled_) sim_.cancel(epoch_event_);
}

void CoherenceDirectory::register_replica(runtime::RuntimeInstanceId replica,
                                          ViewSubscription subscription) {
  replicas_[replica] = std::move(subscription);
}

void CoherenceDirectory::unregister_replica(
    runtime::RuntimeInstanceId replica) {
  replicas_.erase(replica);
  pending_.erase(replica);
}

void CoherenceDirectory::subscribe(runtime::RuntimeInstanceId replica,
                                   const std::string& key) {
  replicas_[replica].object_keys.insert(key);
}

bool CoherenceDirectory::validate_replica(
    runtime::RuntimeInstanceId replica) {
  if (runtime_.exists(replica)) return true;
  // Lazy pruning: a replica whose instance is gone (uninstalled, crashed)
  // would otherwise be re-evaluated against every future update forever.
  replicas_.erase(replica);
  pending_.erase(replica);
  ++stats_.replicas_evicted;
  return false;
}

void CoherenceDirectory::on_update(const Update& update,
                                   runtime::RuntimeInstanceId origin) {
  // Collect conflicting live replicas first: validate_replica erases dead
  // entries, which must not invalidate the iteration.
  std::vector<runtime::RuntimeInstanceId> targets;
  targets.reserve(replicas_.size());  // fan-out usually hits most replicas
  for (const auto& [replica, subscription] : replicas_) {
    if (replica == origin) continue;
    if (!conflict_map_->conflicts(update.descriptor, subscription)) continue;
    targets.push_back(replica);
  }
  bool staged_this = false;
  for (runtime::RuntimeInstanceId replica : targets) {
    if (!validate_replica(replica)) continue;
    if (!tuning_.batch_fanout) {
      push_single(replica, update);
      continue;
    }
    pending_[replica].push_back(staged_.size());
    staged_this = true;
  }
  if (!staged_this) return;

  staged_.push_back(update);
  schedule_epoch_flush();
}

void CoherenceDirectory::schedule_epoch_flush() {
  if (epoch_scheduled_) return;
  epoch_scheduled_ = true;
  // A zero epoch still defers to the end of the current event cascade, so
  // every update staged at this timestamp (e.g. a relayed sync batch)
  // ships as one push per replica.
  epoch_event_ = sim_.schedule(tuning_.flush_epoch, [this] { flush_staged(); });
}

void CoherenceDirectory::flush_staged() {
  if (epoch_scheduled_) {
    sim_.cancel(epoch_event_);
    epoch_scheduled_ = false;
  }
  if (staged_.empty()) {
    pending_.clear();
    return;
  }
  ++stats_.epochs;

  // Replicas due the same staged set share one immutable batch body.
  std::map<std::vector<std::size_t>, std::shared_ptr<UpdateBatch>> shared;
  std::vector<runtime::RuntimeInstanceId> due;
  due.reserve(pending_.size());
  for (const auto& [replica, indices] : pending_) {
    if (!indices.empty()) due.push_back(replica);
  }
  for (runtime::RuntimeInstanceId replica : due) {
    if (!validate_replica(replica)) continue;
    const std::vector<std::size_t>& indices = pending_[replica];
    auto it = shared.find(indices);
    std::shared_ptr<UpdateBatch> batch;
    if (it != shared.end()) {
      batch = it->second;
      ++stats_.batches_shared;
    } else {
      batch = std::make_shared<UpdateBatch>();
      batch->replica_id = home_;
      batch->updates.reserve(indices.size());
      for (std::size_t idx : indices) batch->updates.push_back(staged_[idx]);
      shared.emplace(indices, batch);
    }
    send_push(replica, batch);
  }
  staged_.clear();
  pending_.clear();
}

void CoherenceDirectory::push_single(runtime::RuntimeInstanceId replica,
                                     const Update& update) {
  auto batch = std::make_shared<UpdateBatch>();
  batch->replica_id = home_;
  batch->updates.push_back(update);
  send_push(replica, std::move(batch));
}

void CoherenceDirectory::send_push(runtime::RuntimeInstanceId replica,
                                   std::shared_ptr<UpdateBatch> batch) {
  runtime::Request request;
  request.op = push_op_;
  request.wire_bytes = batch->wire_bytes();
  const std::size_t updates = batch->updates.size();
  request.body = std::move(batch);

  ++stats_.pushes;
  stats_.push_updates += updates;
  // The naive path would have issued one RPC per update delivered to this
  // replica.
  stats_.push_rpcs_saved += updates - 1;

  const net::NodeId home_node = runtime_.instance(home_).node;
  runtime_.invoke_from_node(home_node, replica, std::move(request),
                            [](runtime::Response response) {
                              if (!response.ok) {
                                PSF_WARN()
                                    << "coherence push rejected: "
                                    << response.error;
                              }
                            });
}

}  // namespace psf::coherence
