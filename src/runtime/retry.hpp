// Client-side resilience policy for the generic proxy: bounded retries with
// capped exponential backoff and deterministic seeded jitter, plus
// rebind-on-unreachable (drop the cached access path and re-request one).
//
// Only transport failures (Response::transport != kNone) are retried —
// application-level errors are final. Backoff for attempt k (k = 1 is the
// first retry) is min(cap, base * 2^(k-1)) scaled by a jitter factor drawn
// uniformly from [1 - jitter, 1 + jitter] out of a per-proxy seeded RNG, so
// traces replay bit-identically for a fixed seed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace psf::runtime {

struct RetryPolicy {
  // Per-attempt delivery deadline (passed to invoke_from_node). Zero means
  // attempts never time out — only fast transport failures are retried.
  sim::Duration attempt_timeout = sim::Duration::from_seconds(2);
  // Total attempts including the first. 1 disables retries.
  std::size_t max_attempts = 6;
  sim::Duration backoff_base = sim::Duration::from_millis(200);
  sim::Duration backoff_cap = sim::Duration::from_seconds(2);
  // Jitter fraction in [0, 1): each backoff is scaled by a uniform draw
  // from [1 - jitter, 1 + jitter].
  double jitter = 0.2;
  // Overall budget measured from the first attempt; once exceeded, no
  // further retries are scheduled. Zero means unlimited.
  sim::Duration overall_deadline = sim::Duration::zero();
  // On kUnreachable / kDeadTarget failures, discard the cached binding and
  // re-request an access path before the next attempt.
  bool rebind_on_unreachable = true;
  // Seed for the jitter RNG (forked per proxy with the client node mixed in).
  std::uint64_t seed = 0x7E57AB1E5EEDULL;
};

struct RetryTelemetry {
  std::uint64_t attempts = 0;       // wire attempts, retries included
  std::uint64_t successes = 0;      // operations that eventually succeeded
  std::uint64_t retries = 0;        // attempts beyond the first
  std::uint64_t rebinds = 0;        // bindings discarded and re-requested
  // Transport failures by kind, across all attempts.
  std::uint64_t timeouts = 0;
  std::uint64_t dead_targets = 0;
};

}  // namespace psf::runtime
