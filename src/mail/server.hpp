// MailServer: the authoritative home component. Holds every account, applies
// replica sync batches through its coherence directory, and re-encrypts
// sensitive messages from the sender's key to the recipient's key on
// delivery (paper §2).
#pragma once

#include <map>
#include <memory>
#include <string>

#include "coherence/directory.hpp"
#include "mail/config.hpp"
#include "mail/types.hpp"
#include "runtime/smock.hpp"

namespace psf::mail {

struct MailServerStats {
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t sync_updates_applied = 0;
  std::uint64_t reencryptions = 0;
};

class MailServerComponent : public runtime::Component {
 public:
  explicit MailServerComponent(MailConfigPtr config)
      : config_(std::move(config)) {}

  void on_start() override;
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override;

  // Diagnostics / test access.
  const Account* find_account(const std::string& user) const;
  std::size_t inbox_size(const std::string& user) const;
  const MailServerStats& mail_stats() const { return stats_; }
  coherence::CoherenceDirectory* directory() { return directory_.get(); }

 private:
  void handle_send(const runtime::Request& request,
                   runtime::ResponseCallback done);
  void handle_receive(const runtime::Request& request,
                      runtime::ResponseCallback done);
  void handle_sync(const runtime::Request& request,
                   runtime::ResponseCallback done);
  void handle_register_replica(const runtime::Request& request,
                               runtime::ResponseCallback done);

  // Stores the message (recipient inbox + sender's sent folder) and notifies
  // the directory. `origin` is the replica a sync came from (0 = direct).
  void apply_send(const MailMessage& message,
                  runtime::RuntimeInstanceId origin);

  Account& ensure_account(const std::string& user);

  // Re-seals a sensitive message from its current key owner to `recipient`;
  // returns the crypto CPU units spent (0 for plaintext messages).
  double reencrypt_for(MailMessage& message, const std::string& recipient);

  MailConfigPtr config_;
  std::map<std::string, Account> accounts_;
  std::unique_ptr<coherence::CoherenceDirectory> directory_;
  MailServerStats stats_;
};

}  // namespace psf::mail
