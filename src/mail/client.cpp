#include "mail/client.hpp"

#include <optional>
#include <vector>

#include "util/logging.hpp"

namespace psf::mail {

bool MailClientComponent::supports(const std::string& /*op*/) const {
  return true;
}

bool ViewMailClientComponent::supports(const std::string& op) const {
  return op == ops::kSend || op == ops::kReceive;
}

void MailClientComponent::handle_request(const runtime::Request& request,
                                         runtime::ResponseCallback done) {
  if (!supports(request.op)) {
    ++stats_.rejected_ops;
    done(runtime::Response::failure("operation '" + request.op +
                                    "' not available on this client view"));
    return;
  }
  if (request.op == ops::kSend) {
    handle_send(request, std::move(done));
  } else if (request.op == ops::kReceive) {
    handle_receive(request, std::move(done));
  } else {
    // Account management passes straight through to the server side.
    call("ServerInterface", request, std::move(done));
  }
}

void MailClientComponent::handle_send(const runtime::Request& request,
                                      runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<SendBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed send"));
    return;
  }
  ++stats_.sends;

  const MailMessage& message = body->message;
  auto outgoing = std::make_shared<SendBody>();
  double crypto_units = 0.0;
  if (message.sensitivity > 0 && !message.sealed) {
    auto key = config_->keys->key(
        crypto::KeyRef{message.from, message.sensitivity});
    if (!key) {
      done(runtime::Response::failure("sender has no key at level " +
                                      std::to_string(message.sensitivity)));
      return;
    }
    // Sealed straight from the request's plaintext: the forwarded copy
    // carries the blob and never the body.
    MailMessage& out = outgoing->message;
    out.id = message.id;
    out.from = message.from;
    out.to = message.to;
    out.subject = message.subject;
    out.sensitivity = message.sensitivity;
    out.sealed = std::make_shared<crypto::SealedBlob>(
        crypto::seal(*key, message.id, message.plaintext));
    out.key_owner = message.from;
    crypto_units = crypto::crypto_cpu_cost(message.plaintext.size());
  } else {
    outgoing->message = message;
  }

  runtime::Request forwarded;
  forwarded.op = ops::kSend;
  forwarded.body = outgoing;
  forwarded.wire_bytes = send_wire_bytes(outgoing->message);
  forwarded.principal = request.principal;

  auto send_it = [this, forwarded = std::move(forwarded),
                  done = std::move(done)]() mutable {
    call("ServerInterface", std::move(forwarded), std::move(done));
  };
  if (crypto_units > 0.0) {
    charge_cpu(crypto_units, std::move(send_it));
  } else {
    send_it();
  }
}

void MailClientComponent::handle_receive(const runtime::Request& request,
                                         runtime::ResponseCallback done) {
  const auto* body = runtime::body_as<ReceiveBody>(request);
  if (body == nullptr) {
    done(runtime::Response::failure("malformed receive"));
    return;
  }
  ++stats_.receives;
  const std::string user = body->user;

  call("ServerInterface", request,
       [this, user, done = std::move(done)](runtime::Response response) {
         if (!response.ok) {
           done(std::move(response));
           return;
         }
         const auto* result = runtime::body_as<ReceiveResultBody>(response);
         if (result == nullptr) {
           done(std::move(response));
           return;
         }
         // Decrypt and verify every sealed message for the local user. A
         // run of messages under one (key owner, level) shares one key
         // lookup; the blobs open as one batch.
         auto plain = std::make_shared<ReceiveResultBody>();
         plain->messages = result->messages;
         std::vector<MailMessage>& messages = plain->messages;
         std::vector<crypto::UnsealJob> jobs;
         std::vector<std::size_t> job_message;  // message index of each job
         jobs.reserve(messages.size());
         job_message.reserve(messages.size());
         const MailMessage* run = nullptr;
         std::optional<crypto::SymmetricKey> key;
         for (std::size_t i = 0; i < messages.size(); ++i) {
           const MailMessage& m = messages[i];
           if (!m.sealed) continue;
           if (run == nullptr || m.key_owner != run->key_owner ||
               m.sensitivity != run->sensitivity) {
             run = &m;
             auto found = config_->keys->key(
                 crypto::KeyRef{m.key_owner, m.sensitivity});
             key = found ? std::optional(*found) : std::nullopt;
           }
           if (!key) continue;  // counted as a MAC failure below
           jobs.push_back(crypto::UnsealJob{*key, m.sealed.get(), {}, false});
           job_message.push_back(i);
         }
         crypto::unseal_all(jobs);

         // Results in message order: crypto_units is a sum of doubles, and
         // its order decides simulated time.
         double crypto_units = 0.0;
         std::size_t next = 0;
         for (std::size_t i = 0; i < messages.size(); ++i) {
           MailMessage& m = messages[i];
           if (!m.sealed) continue;
           crypto::UnsealJob* job = nullptr;
           if (next < jobs.size() && job_message[next] == i) {
             job = &jobs[next++];
           }
           if (job != nullptr && job->ok) {
             crypto_units += crypto::crypto_cpu_cost(job->out.size());
             m.plaintext = std::move(job->out);
             m.sealed.reset();
             ++stats_.messages_decrypted;
           } else {
             ++stats_.mac_failures;
             PSF_WARN() << "MailClient: failed to unseal message " << m.id;
           }
         }
         runtime::Response out;
         out.body = plain;
         out.wire_bytes = response.wire_bytes;
         if (crypto_units > 0.0) {
           charge_cpu(crypto_units, [out = std::move(out),
                                     done = std::move(done)]() mutable {
             done(std::move(out));
           });
         } else {
           done(std::move(out));
         }
       });
}

}  // namespace psf::mail
