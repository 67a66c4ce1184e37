#include "coherence/policy.hpp"

#include <sstream>

namespace psf::coherence {

std::string CoherencePolicy::to_string() const {
  std::ostringstream oss;
  switch (kind) {
    case Kind::kNone:
      oss << "none";
      break;
    case Kind::kWriteThrough:
      oss << "write-through";
      break;
    case Kind::kCountBased:
      oss << "count-based(" << max_unpropagated << ")";
      break;
    case Kind::kTimeBased:
      oss << "time-based(" << period.millis() << "ms)";
      break;
  }
  return oss.str();
}

}  // namespace psf::coherence
