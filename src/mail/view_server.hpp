// ViewMailServer: a data view of MailServer (paper §3.1) — caches a subset
// of account state at a lower-trust node, serves what it can locally, and
// forwards the rest upstream through its ServerInterface wire (which the
// planner may have routed through an Encryptor/Decryptor pair).
//
// Trust semantics: the view's TrustLevel factor (bound by the planner from
// the node environment) caps the message sensitivity it may store or
// decrypt. Sends above the cap forward upstream uncached; receives asking
// for high-sensitivity content forward upstream. This is what grounds the
// spec's RRF at run time: with the case-study workload (20% high-
// sensitivity traffic) the view forwards ~0.2 of its requests.
//
// Coherence: locally-applied sends are queued in a ReplicaCoherence whose
// transport is the component's own upstream wire, so sync batches cross the
// same encrypted chain as requests; the view also runs a directory of its
// own so further downstream views (Seattle behind San Diego) stay coherent.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "coherence/directory.hpp"
#include "coherence/replica.hpp"
#include "mail/config.hpp"
#include "mail/types.hpp"
#include "runtime/smock.hpp"

namespace psf::mail {

struct ViewServerStats {
  std::uint64_t sends_local = 0;
  std::uint64_t sends_forwarded = 0;
  std::uint64_t receives_local = 0;
  std::uint64_t receives_forwarded = 0;
  std::uint64_t syncs_relayed = 0;

  double forward_fraction() const {
    const double total = static_cast<double>(sends_local + sends_forwarded +
                                             receives_local +
                                             receives_forwarded);
    if (total == 0.0) return 0.0;
    return static_cast<double>(sends_forwarded + receives_forwarded) / total;
  }
};

// The view's exported migration state: its warm account cache. Rides the
// generic StateSnapshot body slot, so the transfer uses the same simulated
// message machinery as everything else.
struct ViewStateSnapshotBody : runtime::MessageBody {
  std::map<std::string, Account> accounts;
};

class ViewMailServerComponent : public runtime::Component {
 public:
  explicit ViewMailServerComponent(MailConfigPtr config)
      : config_(std::move(config)) {}

  void on_start() override;
  void on_stop() override;
  void handle_request(const runtime::Request& request,
                      runtime::ResponseCallback done) override;

  // Live-migration hooks: quiesce = flush the coherence queue upstream (the
  // snapshot must not race a half-propagated batch), export = copy the warm
  // cache, import = merge into whatever the replacement has absorbed since
  // its own on_start registered it with the directory.
  void prepare_migration(std::function<void()> done) override;
  std::optional<runtime::StateSnapshot> export_state() override;
  util::Status import_state(const runtime::StateSnapshot& snapshot) override;

  std::int64_t trust_level() const { return trust_level_; }
  const ViewServerStats& view_stats() const { return stats_; }
  std::size_t cached_inbox_size(const std::string& user) const;
  coherence::ReplicaCoherence* replica_coherence() { return replica_.get(); }
  coherence::CoherenceDirectory* directory() { return directory_.get(); }

 private:
  void handle_send(const runtime::Request& request,
                   runtime::ResponseCallback done);
  void handle_receive(const runtime::Request& request,
                      runtime::ResponseCallback done);
  void handle_push(const runtime::Request& request,
                   runtime::ResponseCallback done);
  void handle_sync(const runtime::Request& request,
                   runtime::ResponseCallback done);
  void forward(const runtime::Request& request, runtime::ResponseCallback done);

  void apply_send_locally(const MailMessage& message, bool queue_coherence);

  double reencrypt_for(MailMessage& message, const std::string& recipient);

  MailConfigPtr config_;
  std::int64_t trust_level_ = 1;
  std::map<std::string, Account> cache_;
  std::unique_ptr<coherence::ReplicaCoherence> replica_;
  std::unique_ptr<coherence::CoherenceDirectory> directory_;
  ViewServerStats stats_;
  // Requests deferred while a coherence flush is in flight (the view may
  // not serve stale or mutate in-flight state mid-propagation).
  std::vector<std::pair<runtime::Request, runtime::ResponseCallback>>
      deferred_;
  bool draining_ = false;
};

}  // namespace psf::mail
