// Shared configuration for the mail service's components.
//
// Component factories capture a shared_ptr to one MailServiceConfig, which
// is how per-scenario knobs (coherence policy) and shared substrates (the
// keystore) reach dynamically deployed instances — the moral equivalent of
// the configuration a Java component would read after class loading.
#pragma once

#include <cstdint>
#include <memory>

#include "coherence/policy.hpp"
#include "crypto/keystore.hpp"

namespace psf::mail {

struct MailServiceConfig {
  std::uint64_t master_secret = 0xC0FFEE12345678ULL;

  // Coherence policy installed into each ViewMailServer replica.
  coherence::CoherencePolicy view_policy = coherence::CoherencePolicy::none();

  // Per-(user, sensitivity-level) keys. Conceptually each node holds only
  // the keys its trust level allows; the release ledger in the keystore
  // records (and tests assert) that invariant.
  std::shared_ptr<crypto::KeyStore> keys =
      std::make_shared<crypto::KeyStore>(0xC0FFEE12345678ULL);

  // Maximum messages returned per receive.
  std::size_t receive_batch = 16;
};

using MailConfigPtr = std::shared_ptr<MailServiceConfig>;

}  // namespace psf::mail
