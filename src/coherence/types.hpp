// Shared types of the coherence layer.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "runtime/message.hpp"

namespace psf::coherence {

// Describes one update for conflict evaluation. `object_key` identifies the
// object the view granularity is defined over (a mail account, a document).
struct UpdateDescriptor {
  std::string object_key;
  std::uint64_t bytes = 256;
};

// One buffered update: descriptor + opaque payload the home component knows
// how to apply.
struct Update {
  UpdateDescriptor descriptor;
  std::shared_ptr<const runtime::MessageBody> payload;
};

// A batch of updates shipped replica→home (or home→replica for pushes).
struct UpdateBatch : runtime::MessageBody {
  std::uint64_t replica_id = 0;
  std::vector<Update> updates;

  std::uint64_t wire_bytes() const {
    std::uint64_t total = 64;  // envelope
    for (const Update& u : updates) total += u.descriptor.bytes + 32;
    return total;
  }
};

// What a replicated view holds: the view-granularity subscription the
// directory evaluates updates against (§3.2's conflict map is subscription
// overlap). An update conflicts with a replica whose subscription covers its
// object key. Empty `object_keys` plus `wildcard` subscribes to everything
// (a full replica).
struct ViewSubscription {
  std::set<std::string> object_keys;
  bool wildcard = false;

  bool covers(const std::string& key) const {
    return wildcard || object_keys.count(key) != 0;
  }
};

}  // namespace psf::coherence
