#include "mail/client.hpp"

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

  auto outgoing = std::make_shared<SendBody>();
  outgoing->message = body->message;
  double crypto_units = 0.0;
  if (outgoing->message.sensitivity > 0 && !outgoing->message.sealed) {
    auto key = config_->keys->key(crypto::KeyRef{
        outgoing->message.from, outgoing->message.sensitivity});
    if (!key) {
      done(runtime::Response::failure("sender has no key at level " +
                                      std::to_string(
                                          outgoing->message.sensitivity)));
      return;
    }
    crypto_units = crypto::crypto_cpu_cost(outgoing->message.plaintext.size());
    outgoing->message.sealed = std::make_shared<crypto::SealedBlob>(
        crypto::seal(*key, outgoing->message.id, outgoing->message.plaintext));
    outgoing->message.key_owner = outgoing->message.from;
    outgoing->message.plaintext.clear();
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
         // Decrypt and verify every sealed message for the local user.
         auto plain = std::make_shared<ReceiveResultBody>();
         double crypto_units = 0.0;
         for (const MailMessage& m : result->messages) {
           MailMessage copy = m;
           if (copy.sealed) {
             auto key = config_->keys->key(
                 crypto::KeyRef{copy.key_owner, copy.sensitivity});
             std::vector<std::uint8_t> text;
             if (key && crypto::unseal(*key, *copy.sealed, text)) {
               crypto_units += crypto::crypto_cpu_cost(text.size());
               copy.plaintext = std::move(text);
               copy.sealed.reset();
               ++stats_.messages_decrypted;
             } else {
               ++stats_.mac_failures;
               PSF_WARN() << "MailClient: failed to unseal message "
                          << copy.id;
             }
           }
           plain->messages.push_back(std::move(copy));
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
