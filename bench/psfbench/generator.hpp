// psfbench's load generator. Clients bind through GenericProxy and invoke
// the mail service; the generator observes them only from outside: sim
// latency from each public call to its callback, outcome counts, and an
// integrity check of every message a receive returns (self-mail whose body
// size and bytes derive from the client and the message id).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "mail/config.hpp"
#include "runtime/generic.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace psf::bench {

enum class Op : std::uint8_t { kSend, kReceive, kReceiveHigh };

// Operation classes the generator counts; index into Observations arrays.
enum OpClass : std::size_t { kBindOp = 0, kSendOp = 1, kReceiveOp = 2 };

struct Observations {
  // Sim-domain latency samples in completion order.
  std::vector<double> send_ms;
  std::vector<double> receive_ms;
  std::vector<double> access_s;
  std::array<std::uint64_t, 3> issued{};
  std::array<std::uint64_t, 3> ok{};
  std::array<std::uint64_t, 3> failed{};
  // Callbacks that fired more than once for one call (must stay 0).
  std::uint64_t duplicate_callbacks = 0;
  std::uint64_t messages_received = 0;
  // Received messages that were not sent by this user with these bytes.
  std::uint64_t integrity_failures = 0;
  // Operations completed while the measured clock was running.
  std::uint64_t measured_ops = 0;
  std::size_t binds_in_flight = 0;
  std::size_t backlog_peak = 0;

  std::uint64_t total(const std::array<std::uint64_t, 3>& a) const {
    return a[0] + a[1] + a[2];
  }
};

struct Client {
  std::uint32_t index = 0;
  std::string user;
  net::NodeId node;
  planner::PlanRequest request;  // interface, TrustLevel, declared rate
  std::unique_ptr<runtime::GenericProxy> proxy;
  util::Rng rng;
  std::uint64_t salt = 0;  // keys the client's message bodies
  std::vector<Op> script;
  std::size_t next_op = 0;
  sim::Duration think = sim::Duration::zero();
  std::function<void()> on_finish;
  std::uint64_t next_message_id = 1;
  // The bind outcome as handed to this client.
  std::optional<runtime::AccessOutcome> outcome;
};

class Generator {
 public:
  Generator(core::Framework& fw, mail::MailConfigPtr config, Tracer* tracer)
      : fw_(fw), config_(std::move(config)), tracer_(tracer) {}

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  // A client at `node` asking for the mail ClientInterface at `trust` with
  // the given declared rate. Clients live until the generator is destroyed,
  // so no framework callback can outlive its proxy.
  Client& add_client(const std::string& user, net::NodeId node,
                     std::int64_t trust, double rate_rps, util::Rng rng);

  // Binds the client's proxy; `then(ok)` runs when the bind settles.
  void bind(Client& client, std::function<void(bool)> then);

  // Closed loop: after a think time drawn uniformly from [0.75, 1.25] x
  // `think`, issue the next scripted op; repeat after each completion. The
  // first op waits a uniform fraction of one think time, so clients do not
  // start in lockstep. `on_finish` runs after the last op completes.
  void run_script(Client& client, std::vector<Op> script, sim::Duration think,
                  std::function<void()> on_finish);

  void set_measuring(bool on) { measuring_ = on; }

  const Observations& observations() const { return obs_; }
  const std::vector<std::unique_ptr<Client>>& clients() const {
    return clients_;
  }

 private:
  void schedule_next(Client& client, sim::Duration delay);
  void issue(Client& client);
  void completed(OpClass op, bool ok);
  double sim_now_s() const;

  core::Framework& fw_;
  mail::MailConfigPtr config_;
  Tracer* tracer_;
  bool measuring_ = false;
  Observations obs_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// Mean message body size; each body is uniform in [0.75, 1.25] x this.
inline constexpr std::size_t kMeanBodyBytes = 2048;

// Body of message `id` from the client with `salt`: size and an affine byte
// pattern both derive from the pair, so a message returned to the wrong
// client, or with a stale or truncated body, fails the integrity check.
std::vector<std::uint8_t> message_body(std::uint64_t salt, std::uint64_t id);

}  // namespace psf::bench
