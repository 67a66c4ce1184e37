#include "mail/server.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace psf::mail {

void MailServerComponent::on_start() {
  directory_ = std::make_unique<coherence::CoherenceDirectory>(
      runtime(), self(), ops::kPush);
}

void MailServerComponent::handle_request(const runtime::Request& request,
                                         runtime::ResponseCallback done) {
  if (request.op == ops::kSend) {
    handle_send(request, std::move(done));
  } else if (request.op == ops::kReceive) {
    handle_receive(request, std::move(done));
  } else if (request.op == ops::kSync) {
    handle_sync(request, std::move(done));
  } else if (request.op == ops::kRegisterReplica) {
    handle_register_replica(request, std::move(done));
  } else if (request.op == ops::kCreateAccount) {
    const auto* body = runtime::body_as<AccountBody>(request);
    if (body == nullptr) {
      done(runtime::Response::failure("malformed create_account"));
      return;
    }
    ensure_account(body->user);
    config_->keys->provision_user(body->user, kMaxSensitivity);
    done(runtime::Response{});
  } else if (request.op == ops::kAddContact) {
    const auto* body = runtime::body_as<ContactBody>(request);
    if (body == nullptr) {
      done(runtime::Response::failure("malformed add_contact"));
      return;
    }
    ensure_account(body->user).contacts.insert(body->contact);
    done(runtime::Response{});
  } else if (request.op == ops::kGetContacts) {
    const auto* body = runtime::body_as<AccountBody>(request);
    if (body == nullptr) {
      done(runtime::Response::failure("malformed get_contacts"));
      return;
    }
    auto result = std::make_shared<ContactsResultBody>();
    if (const Account* account = find_account(body->user)) {
      result->contacts = account->contacts;
    }
    runtime::Response response;
    response.body = result;
    response.wire_bytes = 64 + 32 * result->contacts.size();
    done(std::move(response));
  } else {
    done(runtime::Response::failure("MailServer: unknown op '" + request.op +
                                    "'"));
  }
}

void MailServerComponent::handle_send(const runtime::Request& request,
                                      runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<SendBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed send"));
    return;
  }
  ++stats_.sends;
  apply_send(body->message, /*origin=*/0);
  runtime::Response response;
  response.wire_bytes = 128;  // acknowledgement
  done(std::move(response));
}

void MailServerComponent::handle_receive(const runtime::Request& request,
                                         runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<ReceiveBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed receive"));
    return;
  }
  ++stats_.receives;
  auto result = std::make_shared<ReceiveResultBody>();
  double crypto_units = 0.0;
  if (const Account* account = find_account(body->user)) {
    const auto& inbox = account->inbox.messages;
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
    charge_cpu(crypto_units,
               [response = std::move(response), done = std::move(done)]() mutable {
                 done(std::move(response));
               });
  } else {
    done(std::move(response));
  }
}

void MailServerComponent::handle_sync(const runtime::Request& request,
                                      runtime::ResponseCallback done) {
  const auto* batch = runtime::body_as<coherence::UpdateBatch>(request);
  if (batch == nullptr) {
    done(runtime::Response::failure("malformed sync batch"));
    return;
  }
  for (const coherence::Update& update : batch->updates) {
    const auto* send = dynamic_cast<const SendBody*>(update.payload.get());
    if (send == nullptr) {
      PSF_WARN() << "MailServer: sync update with non-send payload; skipped";
      continue;
    }
    apply_send(send->message, batch->replica_id);
    ++stats_.sync_updates_applied;
  }
  runtime::Response response;
  response.wire_bytes = 128;
  done(std::move(response));
}

void MailServerComponent::handle_register_replica(
    const runtime::Request& request, runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<RegisterReplicaBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed register_replica"));
    return;
  }
  coherence::ViewSubscription subscription;
  subscription.object_keys = body->cached_users;
  subscription.wildcard = body->wildcard;
  directory_->register_replica(body->replica_instance,
                               std::move(subscription));
  runtime::Response response;
  response.wire_bytes = 64;
  done(std::move(response));
}

void MailServerComponent::apply_send(const MailMessage& message,
                                     runtime::RuntimeInstanceId origin) {
  Account& recipient = ensure_account(message.to);
  recipient.inbox.messages.push_back(message);
  auto sender = accounts_.find(message.from);
  if (sender != accounts_.end()) {
    sender->second.sent.messages.push_back(message);
  }
  coherence::Update update;
  update.descriptor.object_key = message.to;
  update.descriptor.bytes = send_wire_bytes(message);
  auto payload = std::make_shared<SendBody>();
  payload->message = message;
  update.payload = std::move(payload);
  directory_->on_update(update, origin);
}

Account& MailServerComponent::ensure_account(const std::string& user) {
  auto it = accounts_.find(user);
  if (it == accounts_.end()) {
    Account account;
    account.user = user;
    config_->keys->provision_user(user, kMaxSensitivity);
    it = accounts_.emplace(user, std::move(account)).first;
  }
  return it->second;
}

const Account* MailServerComponent::find_account(
    const std::string& user) const {
  auto it = accounts_.find(user);
  return it == accounts_.end() ? nullptr : &it->second;
}

std::size_t MailServerComponent::inbox_size(const std::string& user) const {
  const Account* account = find_account(user);
  return account == nullptr ? 0 : account->inbox.messages.size();
}

double MailServerComponent::reencrypt_for(MailMessage& message,
                                          const std::string& recipient) {
  if (message.sensitivity == 0 || !message.sealed) return 0.0;
  if (message.key_owner == recipient) return 0.0;  // already re-encrypted
  auto sender_key = config_->keys->key(
      crypto::KeyRef{message.key_owner, message.sensitivity});
  auto recipient_key = config_->keys->key(
      crypto::KeyRef{recipient, message.sensitivity});
  if (!sender_key || !recipient_key) {
    PSF_WARN() << "MailServer: missing key for re-encryption of message "
               << message.id;
    return 0.0;
  }
  std::vector<std::uint8_t> plain;
  if (!crypto::unseal(*sender_key, *message.sealed, plain)) {
    PSF_WARN() << "MailServer: MAC mismatch re-encrypting message "
               << message.id;
    return 0.0;
  }
  const double cost = 2.0 * crypto::crypto_cpu_cost(plain.size());
  message.sealed = std::make_shared<crypto::SealedBlob>(
      crypto::seal(*recipient_key, message.id ^ 0x5EA1ED, plain));
  message.key_owner = recipient;
  ++stats_.reencryptions;
  return cost;
}

}  // namespace psf::mail
