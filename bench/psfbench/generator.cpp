#include "generator.hpp"

#include <algorithm>

#include "mail/types.hpp"
#include "probes.hpp"

namespace psf::bench {

namespace {

// Low-sensitivity sends: every view up to the Seattle partner's trust level
// may store them, so a send is absorbed by the nearest view.
constexpr std::int64_t kSendSensitivity = 2;
constexpr std::size_t kReceiveBatch = 16;

}  // namespace

std::vector<std::uint8_t> message_body(std::uint64_t salt, std::uint64_t id) {
  util::SplitMix64 mix(salt ^ (id * 0x9E3779B97F4A7C15ULL));
  const std::uint64_t k = mix.next();
  const std::size_t size =
      kMeanBodyBytes * 3 / 4 + (k >> 16) % (kMeanBodyBytes / 2 + 1);
  const auto offset = static_cast<std::uint8_t>(k);
  const auto stride = static_cast<std::uint8_t>((k >> 8) | 1);
  std::vector<std::uint8_t> out(size);
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<std::uint8_t>(offset + stride * i);
  }
  return out;
}

Client& Generator::add_client(const std::string& user, net::NodeId node,
                              std::int64_t trust, double rate_rps,
                              util::Rng rng) {
  auto client = std::make_unique<Client>();
  client->index = static_cast<std::uint32_t>(clients_.size());
  client->user = user;
  client->node = node;
  client->request.interface_name = "ClientInterface";
  client->request.required_properties.emplace_back(
      "TrustLevel", spec::PropertyValue::integer(trust));
  client->request.request_rate_rps = rate_rps;
  client->request.objective = planner::Objective::kMinLatency;
  client->request.search_threads = 1;
  client->request.search_mode = planner::SearchMode::kFlat;
  client->proxy = fw_.make_proxy(node, "SecureMail", client->request);
  client->rng = rng;
  client->salt = client->rng.next_u64();
  config_->keys->provision_user(user, mail::kMaxSensitivity);
  clients_.push_back(std::move(client));
  return *clients_.back();
}

double Generator::sim_now_s() const {
  return fw_.simulator().now().seconds();
}

void Generator::completed(OpClass op, bool ok) {
  ++(ok ? obs_.ok : obs_.failed)[op];
  if (measuring_) ++obs_.measured_ops;
}

void Generator::bind(Client& client, std::function<void(bool)> then) {
  ++obs_.issued[kBindOp];
  obs_.backlog_peak = std::max(obs_.backlog_peak, ++obs_.binds_in_flight);
  const double t0 = sim_now_s();
  auto fired = std::make_shared<bool>(false);
  client.proxy->bind([this, &client, t0, fired,
                      then = std::move(then)](util::Status status) {
    if (*fired) {
      ++obs_.duplicate_callbacks;
      return;
    }
    *fired = true;
    --obs_.binds_in_flight;
    const double t1 = sim_now_s();
    const bool ok = status.is_ok();
    if (ok) {
      client.outcome = client.proxy->outcome();
      obs_.access_s.push_back(t1 - t0);
      if (tracer_ != nullptr) {
        trace_access(*tracer_, *client.outcome, client.index, t0, t1);
      }
    }
    completed(kBindOp, ok);
    then(ok);
  });
}

void Generator::run_script(Client& client, std::vector<Op> script,
                           sim::Duration think,
                           std::function<void()> on_finish) {
  client.script = std::move(script);
  client.next_op = 0;
  client.think = think;
  client.on_finish = std::move(on_finish);
  const double first = client.rng.next_double();
  schedule_next(client, sim::Duration::from_nanos(static_cast<std::int64_t>(
                            static_cast<double>(think.nanos()) * first)));
}

void Generator::schedule_next(Client& client, sim::Duration delay) {
  fw_.simulator().schedule(delay, [this, c = &client] { issue(*c); });
}

void Generator::issue(Client& client) {
  const Op op = client.script[client.next_op++];
  runtime::Request request;
  request.principal = client.user;
  if (op == Op::kSend) {
    auto body = std::make_shared<mail::SendBody>();
    mail::MailMessage& m = body->message;
    m.id = client.next_message_id++;
    m.from = client.user;
    m.to = client.user;
    m.subject = std::to_string(m.id);
    m.sensitivity = kSendSensitivity;
    m.plaintext = message_body(client.salt, m.id);
    request.op = mail::ops::kSend;
    request.wire_bytes = mail::send_wire_bytes(m);
    request.body = std::move(body);
    ++obs_.issued[kSendOp];
  } else {
    auto body = std::make_shared<mail::ReceiveBody>();
    body->user = client.user;
    body->max_messages = kReceiveBatch;
    body->include_high_sensitivity = op == Op::kReceiveHigh;
    request.op = mail::ops::kReceive;
    request.wire_bytes = 256;
    request.body = std::move(body);
    ++obs_.issued[kReceiveOp];
  }

  const double t0 = sim_now_s();
  auto fired = std::make_shared<bool>(false);
  client.proxy->invoke(std::move(request), [this, &client, op, t0,
                                            fired](runtime::Response response) {
    if (*fired) {
      ++obs_.duplicate_callbacks;
      return;
    }
    *fired = true;
    const double t1 = sim_now_s();
    const bool ok = response.ok;
    if (op == Op::kSend) {
      if (ok) obs_.send_ms.push_back((t1 - t0) * 1e3);
      completed(kSendOp, ok);
    } else {
      if (ok) {
        obs_.receive_ms.push_back((t1 - t0) * 1e3);
        const auto* result =
            runtime::body_as<mail::ReceiveResultBody>(response);
        if (result == nullptr) {
          ++obs_.integrity_failures;
        } else {
          for (const mail::MailMessage& m : result->messages) {
            ++obs_.messages_received;
            const bool intact =
                m.from == client.user && m.to == client.user && m.id != 0 &&
                m.id < client.next_message_id && !m.sealed &&
                m.plaintext == message_body(client.salt, m.id);
            if (!intact) ++obs_.integrity_failures;
          }
        }
      }
      completed(kReceiveOp, ok);
    }
    if (tracer_ != nullptr) {
      tracer_->span(Domain::kSim,
                    op == Op::kSend ? "op.send"
                    : op == Op::kReceive ? "op.receive"
                                         : "op.receive_high",
                    client.index, t0, t1, 0, ok ? "" : "\"failed\":true");
    }
    if (client.next_op < client.script.size()) {
      const double factor = client.rng.uniform(0.75, 1.25);
      schedule_next(client, sim::Duration::from_nanos(static_cast<std::int64_t>(
                                static_cast<double>(client.think.nanos()) *
                                factor)));
    } else if (client.on_finish) {
      client.on_finish();
    }
  });
}

}  // namespace psf::bench
