// Replica-side coherence module.
//
// A replicated view component owns one ReplicaCoherence. Local updates are
// recorded; the policy decides when the accumulated batch ships to the home
// instance as a single coherence request ("op" chosen by the service, e.g.
// "mail.sync"). Flush traffic flows through the normal runtime transfer
// path, so it contends with request traffic on links and CPUs — which is
// exactly the coherence overhead Fig. 7 measures.
//
// Data path (DESIGN.md §coherence data path):
//  - with `policy.coalesce`, same-descriptor updates still in the pending
//    queue merge last-writer-wins, so a burst of N writes to one object
//    ships one update;
//  - with `policy.max_inflight_flushes` > 1, up to W batches may be
//    unacknowledged at once (pipelined write-back) before the replica
//    reports `flushing()` and its owner starts deferring requests;
//  - a rejected flush is requeued at the queue front and retried up to
//    `policy.max_flush_retries` consecutive times before being dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coherence/policy.hpp"
#include "coherence/types.hpp"
#include "runtime/smock.hpp"

namespace psf::coherence {

struct ReplicaStats {
  std::uint64_t updates_recorded = 0;
  std::uint64_t flushes = 0;
  std::uint64_t updates_flushed = 0;
  std::uint64_t bytes_flushed = 0;
  // Coalesced write-back: updates merged into an already-pending update of
  // the same (object_key, field), and the wire bytes that merge saved.
  std::uint64_t updates_coalesced = 0;
  std::uint64_t coalesced_bytes_saved = 0;
  // Failure path: rejected flushes, batches requeued at the queue front,
  // updates requeued, and updates dropped after exhausting retries.
  std::uint64_t flushes_rejected = 0;
  std::uint64_t flushes_requeued = 0;
  std::uint64_t updates_requeued = 0;
  std::uint64_t updates_dropped = 0;
  // Window accounting: peak simultaneous unacked batches, and total
  // simulated time the window was full (the interval during which the
  // owning view defers client requests — Fig. 7's blocking overhead).
  std::size_t max_inflight = 0;
  double blocked_on_flush_ms = 0.0;
};

class ReplicaCoherence {
 public:
  // How a flush batch reaches the home: the default (home-instance
  // constructor) sends directly; the transport constructor routes through a
  // caller-supplied channel — a replicated view passes its ServerInterface
  // wire so coherence traffic flows through the same (possibly encrypted)
  // component chain as request traffic.
  using Transport =
      std::function<void(runtime::Request, runtime::ResponseCallback)>;

  ReplicaCoherence(runtime::SmockRuntime& runtime,
                   runtime::RuntimeInstanceId self,
                   runtime::RuntimeInstanceId home, std::string flush_op,
                   CoherencePolicy policy);
  ReplicaCoherence(runtime::SmockRuntime& runtime,
                   runtime::RuntimeInstanceId self, Transport transport,
                   std::string flush_op, CoherencePolicy policy);
  ~ReplicaCoherence();

  ReplicaCoherence(const ReplicaCoherence&) = delete;
  ReplicaCoherence& operator=(const ReplicaCoherence&) = delete;

  const CoherencePolicy& policy() const { return policy_; }
  const ReplicaStats& stats() const { return stats_; }
  std::size_t pending() const { return queue_.size(); }
  std::size_t inflight_flushes() const { return inflight_flushes_; }

  // True while the flush window is full. Replicated views defer serving new
  // requests during propagation (the §3.2 protocol "limits the number of
  // unpropagated messages at each replica": at its limit, the replica must
  // finish writing back before accepting more work) — this blocking is the
  // coherence overhead Fig. 7's 500/1000 scenarios measure. With a window
  // of 1 this is the classic stop-and-wait behavior; with W>1 the replica
  // keeps serving until W batches are unacknowledged.
  bool flushing() const {
    return inflight_flushes_ >= policy_.max_inflight_flushes;
  }

  // Invoked (if set) every time a flush completes — views use it to drain
  // requests deferred while flushing.
  void set_flush_listener(std::function<void()> listener) {
    flush_listener_ = std::move(listener);
  }

  // Records a local update; may trigger an automatic flush per the policy.
  void record_update(UpdateDescriptor descriptor,
                     std::shared_ptr<const runtime::MessageBody> payload);

  // Ships all pending updates now. `done` (optional) fires when the home
  // acknowledges. No-op on an empty queue or a full window (the pending
  // updates ride the next flush).
  void flush(std::function<void()> done = nullptr);

 private:
  void maybe_auto_flush();
  void on_flush_response(std::shared_ptr<UpdateBatch> batch,
                         std::size_t attempt, std::function<void()> done,
                         runtime::Response response);
  void note_window_state();
  void rebuild_coalesce_index();
  static std::string coalesce_key(const UpdateDescriptor& descriptor) {
    return descriptor.object_key + '\x1f' + descriptor.field;
  }

  runtime::SmockRuntime& runtime_;
  runtime::RuntimeInstanceId self_;
  Transport transport_;
  std::string flush_op_;
  CoherencePolicy policy_;
  std::vector<Update> queue_;
  // Pending-queue position per coalesce key (maintained only when
  // policy_.coalesce): record_update overwrites in place on a hit.
  std::map<std::string, std::size_t> coalesce_index_;
  std::size_t inflight_flushes_ = 0;
  // Retry attempts already consumed by the updates at the queue front (a
  // requeued batch); the next flush carries them forward.
  std::size_t front_attempts_ = 0;
  // When the window last became full (for blocked-time accounting).
  std::optional<sim::Time> window_full_since_;
  std::function<void()> flush_listener_;
  std::optional<sim::PeriodicTimer> timer_;
  // Liveness token for in-flight flush responses: a live migration can
  // retire the replica's component (and this object with it) while a flush
  // is still on the wire, and the response must then be dropped instead of
  // dereferencing a dead replica.
  std::shared_ptr<char> alive_ = std::make_shared<char>(0);
  ReplicaStats stats_;
};

}  // namespace psf::coherence
