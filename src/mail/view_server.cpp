#include "mail/view_server.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace psf::mail {

void ViewMailServerComponent::on_start() {
  // TrustLevel arrives as a planner-bound factor; hand-built deployments may
  // instead rely on the node's raw "trust" credential.
  auto it = factors().values.find("TrustLevel");
  if (it != factors().values.end() && it->second.is_int()) {
    trust_level_ = it->second.as_int();
  } else {
    trust_level_ = runtime()
                       .network()
                       .node(node())
                       .credentials.get_int("trust", 1);
  }

  replica_ = std::make_unique<coherence::ReplicaCoherence>(
      runtime(), self(),
      [this](runtime::Request request, runtime::ResponseCallback done) {
        call("ServerInterface", std::move(request), std::move(done));
      },
      ops::kSync, config_->view_policy);
  replica_->set_flush_listener([this]() {
    // Serve everything that arrived while the flush was in flight. The
    // completed flush may have started the next one at once (a count
    // policy whose queue refilled); drain only once no flush is in flight,
    // else the drained requests would just re-defer.
    if (draining_ || replica_->flushing()) return;
    draining_ = true;
    std::vector<std::pair<runtime::Request, runtime::ResponseCallback>> work;
    work.swap(deferred_);
    for (auto& [request, done] : work) {
      handle_request(request, std::move(done));
    }
    draining_ = false;
  });
  directory_ = std::make_unique<coherence::CoherenceDirectory>(
      runtime(), self(), ops::kPush);

  // Announce ourselves to the home (relayed through any intermediate views,
  // each of which also records us in its own directory).
  auto body = std::make_shared<RegisterReplicaBody>();
  body->replica_instance = self();
  body->wildcard = true;
  runtime::Request request;
  request.op = ops::kRegisterReplica;
  request.body = body;
  request.wire_bytes = 128;
  call("ServerInterface", std::move(request), [](runtime::Response response) {
    if (!response.ok) {
      PSF_WARN() << "ViewMailServer: replica registration failed: "
                 << response.error;
    }
  });
}

void ViewMailServerComponent::on_stop() {
  if (replica_) replica_->flush();
  if (directory_) directory_->flush_staged();
  // A stopped view is done with coherence. An in-flight continuation may
  // keep this object alive past uninstall, but the final flush's response
  // and any later timer tick must find no replica to act on.
  replica_.reset();
  directory_.reset();
}

void ViewMailServerComponent::prepare_migration(std::function<void()> done) {
  if (directory_) directory_->flush_staged();
  if (!replica_) {
    done();
    return;
  }
  // Push queued write-backs upstream before the snapshot is cut, so the
  // exported cache and the home's authoritative state agree. flush() always
  // completes its callback, even when the queue is empty or a flush is
  // already in flight (queued updates then stay local — they still travel
  // inside the exported cache_).
  replica_->flush(std::move(done));
}

std::optional<runtime::StateSnapshot> ViewMailServerComponent::export_state() {
  auto body = std::make_shared<ViewStateSnapshotBody>();
  body->accounts = cache_;
  runtime::StateSnapshot snapshot;
  for (const auto& [user, account] : body->accounts) {
    snapshot.bytes += 64;  // per-account framing
    for (const MailMessage& message : account.inbox.messages) {
      snapshot.bytes += send_wire_bytes(message);
    }
  }
  snapshot.body = std::move(body);
  return snapshot;
}

util::Status ViewMailServerComponent::import_state(
    const runtime::StateSnapshot& snapshot) {
  const auto* body =
      dynamic_cast<const ViewStateSnapshotBody*>(snapshot.body.get());
  if (body == nullptr) {
    return util::invalid_argument(
        "ViewMailServer: snapshot body is not a view state snapshot");
  }
  // Merge, don't overwrite: pushes may already have landed here between our
  // on_start and the snapshot's arrival. Imported messages are older than
  // anything absorbed live, so they go in front; duplicates (same message
  // id) are dropped.
  for (const auto& [user, imported] : body->accounts) {
    Account& account = cache_[user];
    if (account.user.empty()) account.user = imported.user;
    account.contacts.insert(imported.contacts.begin(),
                            imported.contacts.end());
    std::set<std::uint64_t> local_ids;
    for (const MailMessage& message : account.inbox.messages) {
      local_ids.insert(message.id);
    }
    std::vector<MailMessage> merged;
    merged.reserve(imported.inbox.messages.size() +
                   account.inbox.messages.size());
    for (const MailMessage& message : imported.inbox.messages) {
      if (local_ids.count(message.id) == 0) merged.push_back(message);
    }
    for (MailMessage& message : account.inbox.messages) {
      merged.push_back(std::move(message));
    }
    account.inbox.messages = std::move(merged);
  }
  return util::Status::ok();
}

void ViewMailServerComponent::handle_request(const runtime::Request& request,
                                             runtime::ResponseCallback done) {
  // While a coherence batch is propagating, user-facing operations wait
  // (see ReplicaCoherence::flushing for the protocol rationale).
  if (replica_ && replica_->flushing() &&
      (request.op == ops::kSend || request.op == ops::kReceive)) {
    deferred_.emplace_back(request, std::move(done));
    return;
  }
  if (request.op == ops::kSend) {
    handle_send(request, std::move(done));
  } else if (request.op == ops::kReceive) {
    handle_receive(request, std::move(done));
  } else if (request.op == ops::kPush) {
    handle_push(request, std::move(done));
  } else if (request.op == ops::kSync) {
    handle_sync(request, std::move(done));
  } else if (request.op == ops::kRegisterReplica) {
    // A further-downstream view registering: record it locally, then relay
    // upstream so the home knows too.
    const auto* body = runtime::body_as<RegisterReplicaBody>(request);
    if (body != nullptr) {
      coherence::ViewSubscription subscription;
      subscription.object_keys = body->cached_users;
      subscription.wildcard = body->wildcard;
      directory_->register_replica(body->replica_instance, subscription);
    }
    forward(request, std::move(done));
  } else {
    // Account management and anything else is server-authoritative.
    forward(request, std::move(done));
  }
}

void ViewMailServerComponent::handle_send(const runtime::Request& request,
                                          runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<SendBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed send"));
    return;
  }
  if (body->message.sensitivity > trust_level_) {
    // Above our clearance: the message (and its key) may not live here.
    ++stats_.sends_forwarded;
    forward(request, std::move(done));
    return;
  }
  ++stats_.sends_local;
  apply_send_locally(body->message, /*queue_coherence=*/true);
  runtime::Response response;
  response.wire_bytes = 128;
  done(std::move(response));
}

void ViewMailServerComponent::handle_receive(const runtime::Request& request,
                                             runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<ReceiveBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed receive"));
    return;
  }
  if (body->include_high_sensitivity && trust_level_ < kMaxSensitivity) {
    ++stats_.receives_forwarded;
    forward(request, std::move(done));
    return;
  }
  ++stats_.receives_local;
  auto result = std::make_shared<ReceiveResultBody>();
  double crypto_units = 0.0;
  auto it = cache_.find(body->user);
  if (it != cache_.end()) {
    const auto& inbox = it->second.inbox.messages;
    const std::size_t limit =
        std::min({body->max_messages, config_->receive_batch, inbox.size()});
    result->messages.reserve(limit);
    for (std::size_t i = inbox.size() - limit; i < inbox.size(); ++i) {
      MailMessage copy = inbox[i];
      crypto_units += reencrypt_for(copy, body->user);
      result->messages.push_back(std::move(copy));
    }
  }
  runtime::Response response;
  response.body = result;
  response.wire_bytes = receive_result_wire_bytes(result->messages);
  if (crypto_units > 0.0) {
    charge_cpu(crypto_units, [response = std::move(response),
                              done = std::move(done)]() mutable {
      done(std::move(response));
    });
  } else {
    done(std::move(response));
  }
}

void ViewMailServerComponent::handle_push(const runtime::Request& request,
                                          runtime::ResponseCallback done) {
  const auto* batch = runtime::body_as<coherence::UpdateBatch>(request);
  if (batch == nullptr) {
    done(runtime::Response::failure("malformed push"));
    return;
  }
  for (const coherence::Update& update : batch->updates) {
    const auto* send = dynamic_cast<const SendBody*>(update.payload.get());
    if (send == nullptr) continue;
    if (send->message.sensitivity > trust_level_) continue;  // never cache
    apply_send_locally(send->message, /*queue_coherence=*/false);
  }
  runtime::Response response;
  response.wire_bytes = 64;
  done(std::move(response));
}

void ViewMailServerComponent::handle_sync(const runtime::Request& request,
                                          runtime::ResponseCallback done) {
  // A downstream replica's batch: apply what we may cache, propagate
  // everything upstream through our own coherence queue (hierarchical
  // write-back), and push to other downstream replicas.
  const auto* batch = runtime::body_as<coherence::UpdateBatch>(request);
  if (batch == nullptr) {
    done(runtime::Response::failure("malformed sync"));
    return;
  }
  ++stats_.syncs_relayed;
  for (const coherence::Update& update : batch->updates) {
    const auto* send = dynamic_cast<const SendBody*>(update.payload.get());
    if (send == nullptr) continue;
    if (send->message.sensitivity <= trust_level_) {
      apply_send_locally(send->message, /*queue_coherence=*/true);
    } else {
      // Not storable here; relay the raw update upstream.
      replica_->record_update(update.descriptor, update.payload);
    }
    directory_->on_update(update, batch->replica_id);
  }
  runtime::Response response;
  response.wire_bytes = 128;
  done(std::move(response));
}

void ViewMailServerComponent::forward(const runtime::Request& request,
                                      runtime::ResponseCallback done) {
  call("ServerInterface", request, std::move(done));
}

void ViewMailServerComponent::apply_send_locally(const MailMessage& message,
                                                 bool queue_coherence) {
  Account& account = cache_[message.to];
  if (account.user.empty()) account.user = message.to;
  account.inbox.messages.push_back(message);

  if (queue_coherence) {
    coherence::UpdateDescriptor descriptor;
    descriptor.object_key = message.to;
    descriptor.bytes = send_wire_bytes(message);
    auto payload = std::make_shared<SendBody>();
    payload->message = message;
    replica_->record_update(std::move(descriptor), std::move(payload));
  }
}

double ViewMailServerComponent::reencrypt_for(MailMessage& message,
                                              const std::string& recipient) {
  if (message.sensitivity == 0 || !message.sealed) return 0.0;
  if (message.key_owner == recipient) return 0.0;
  // Clearance check: this view only holds keys up to its trust level.
  if (message.sensitivity > trust_level_) return 0.0;
  auto sender_key = config_->keys->key(
      crypto::KeyRef{message.key_owner, message.sensitivity});
  auto recipient_key = config_->keys->key(
      crypto::KeyRef{recipient, message.sensitivity});
  if (!sender_key || !recipient_key) return 0.0;
  std::vector<std::uint8_t> plain;
  if (!crypto::unseal(*sender_key, *message.sealed, plain)) {
    PSF_WARN() << "ViewMailServer: MAC mismatch on message " << message.id;
    return 0.0;
  }
  const double cost = 2.0 * crypto::crypto_cpu_cost(plain.size());
  message.sealed = std::make_shared<crypto::SealedBlob>(
      crypto::seal(*recipient_key, message.id ^ 0x5EA1ED, plain));
  message.key_owner = recipient;
  return cost;
}

std::size_t ViewMailServerComponent::cached_inbox_size(
    const std::string& user) const {
  auto it = cache_.find(user);
  return it == cache_.end() ? 0 : it->second.inbox.messages.size();
}

}  // namespace psf::mail
