// Weak-consistency policies for replicated views (§3.2: "dynamic conflict
// maps ... allow expression of a wide range of service-specific weak
// consistency protocols (including time-driven consistency)").
//
// Four policies cover the paper's design space and its Fig. 7 scenarios:
//  - kWriteThrough: every update propagates immediately;
//  - kCountBased:   propagate once `max_unpropagated` updates accumulate
//                   (the case study's "protocol that limits the number of
//                   unpropagated messages at each replica");
//  - kTimeBased:    propagate on a fixed period (time-driven consistency);
//  - kNone:         never propagate automatically (explicit flush only).
//
// Whatever the trigger, write-back is stop-and-wait: a replica keeps at
// most one batch unacknowledged (DESIGN.md §6d).
#pragma once

#include <cstddef>
#include <string>

#include "sim/time.hpp"

namespace psf::coherence {

struct CoherencePolicy {
  enum class Kind { kNone, kWriteThrough, kCountBased, kTimeBased };

  Kind kind = Kind::kWriteThrough;
  std::size_t max_unpropagated = 1;         // kCountBased
  sim::Duration period = sim::Duration::from_millis(1000);  // kTimeBased

  // A rejected flush is requeued at the queue front and retried; after this
  // many consecutive rejections the batch is dropped (and counted).
  std::size_t max_flush_retries = 3;

  static CoherencePolicy none() {
    return {Kind::kNone, 0, sim::Duration::zero()};
  }
  static CoherencePolicy write_through() {
    return {Kind::kWriteThrough, 1, sim::Duration::zero()};
  }
  static CoherencePolicy count_based(std::size_t max_unpropagated) {
    return {Kind::kCountBased, max_unpropagated, sim::Duration::zero()};
  }
  static CoherencePolicy time_based(sim::Duration period) {
    return {Kind::kTimeBased, 0, period};
  }

  std::string to_string() const;
};

}  // namespace psf::coherence
