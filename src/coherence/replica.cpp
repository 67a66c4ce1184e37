#include "coherence/replica.hpp"

#include <iterator>
#include <utility>

#include "util/logging.hpp"

namespace psf::coherence {

ReplicaCoherence::ReplicaCoherence(runtime::SmockRuntime& runtime,
                                   runtime::RuntimeInstanceId self,
                                   Transport transport, std::string flush_op,
                                   CoherencePolicy policy)
    : runtime_(runtime),
      self_(self),
      transport_(std::move(transport)),
      flush_op_(std::move(flush_op)),
      policy_(policy) {
  if (policy_.kind == CoherencePolicy::Kind::kTimeBased) {
    timer_.emplace(runtime_.simulator(), policy_.period,
                   [this]() { flush(); });
    timer_->start();
  }
}

void ReplicaCoherence::record_update(
    UpdateDescriptor descriptor,
    std::shared_ptr<const runtime::MessageBody> payload) {
  ++stats_.updates_recorded;
  queue_.push_back(Update{std::move(descriptor), std::move(payload)});
  maybe_auto_flush();
}

void ReplicaCoherence::maybe_auto_flush() {
  switch (policy_.kind) {
    case CoherencePolicy::Kind::kNone:
    case CoherencePolicy::Kind::kTimeBased:
      return;  // explicit / timer-driven only
    case CoherencePolicy::Kind::kWriteThrough:
      flush();
      return;
    case CoherencePolicy::Kind::kCountBased:
      if (queue_.size() >= policy_.max_unpropagated) flush();
      return;
  }
}

void ReplicaCoherence::flush(std::function<void()> done) {
  if (queue_.empty() || flushing()) {
    // A flush finishing re-checks the queue, so updates recorded meanwhile
    // ride the next batch.
    if (done) done();
    return;
  }

  auto batch = std::make_shared<UpdateBatch>();
  batch->replica_id = self_;
  batch->updates = std::move(queue_);
  queue_.clear();
  const std::size_t attempt = front_attempts_;
  front_attempts_ = 0;
  flush_started_ = runtime_.simulator().now();

  ++stats_.flushes;
  stats_.updates_flushed += batch->updates.size();
  const std::uint64_t bytes = batch->wire_bytes();
  stats_.bytes_flushed += bytes;

  runtime::Request request;
  request.op = flush_op_;
  request.body = batch;
  request.wire_bytes = bytes;

  transport_(std::move(request),
             [this, batch, attempt, alive = std::weak_ptr<char>(alive_),
              done = std::move(done)](runtime::Response response) mutable {
               if (alive.expired()) {
                 // The replica was retired (live migration / uninstall)
                 // while this flush was in flight. The home has already
                 // applied or rejected the batch; there is no replica left
                 // to account it to, and `done` belonged to the dead
                 // component too.
                 return;
               }
               on_flush_response(std::move(batch), attempt, std::move(done),
                                 std::move(response));
             });
}

void ReplicaCoherence::on_flush_response(std::shared_ptr<UpdateBatch> batch,
                                         std::size_t attempt,
                                         std::function<void()> done,
                                         runtime::Response response) {
  stats_.blocked_on_flush_ms +=
      (runtime_.simulator().now() - *flush_started_).millis();
  flush_started_.reset();

  if (!response.ok) {
    ++stats_.flushes_rejected;
    if (attempt < policy_.max_flush_retries) {
      // Requeue at the queue front so replay preserves the home's apply
      // order; updates recorded while the batch was in flight stay behind
      // it. The attempt count follows whatever next ships from the front.
      PSF_WARN() << "coherence flush rejected by home (attempt "
                 << attempt + 1 << "): " << response.error << "; requeued "
                 << batch->updates.size() << " updates";
      queue_.insert(queue_.begin(),
                    std::make_move_iterator(batch->updates.begin()),
                    std::make_move_iterator(batch->updates.end()));
      ++stats_.flushes_requeued;
      stats_.updates_requeued += batch->updates.size();
      front_attempts_ = attempt + 1;
    } else {
      PSF_WARN() << "coherence flush rejected by home after "
                 << attempt + 1 << " attempts; dropping "
                 << batch->updates.size() << " updates: " << response.error;
      stats_.updates_dropped += batch->updates.size();
    }
  }

  if (done) done();
  // Drain anything that accumulated while the batch was in flight (or was
  // just requeued by the failure path).
  maybe_auto_flush();
  if (flush_listener_) flush_listener_();
}

}  // namespace psf::coherence
