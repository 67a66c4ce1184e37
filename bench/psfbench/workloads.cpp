// detlint:ordered-output — readings feed the determinism check and reports.
#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "core/case_study.hpp"
#include "core/fault_plan.hpp"
#include "crypto/cipher.hpp"
#include "mail/mail_spec.hpp"
#include "mail/registration.hpp"
#include "planner/planner.hpp"
#include "runtime/plan_cache.hpp"

namespace psf::bench {

namespace {

constexpr const char* kService = "SecureMail";
// Simulator chunk between checks of a phase's completion predicate:
// coherence and lease timers keep the event queue non-empty, so run() would
// never return.
constexpr sim::Duration kChunk = sim::Duration::from_millis(250);
constexpr sim::Duration kPhaseLimit = sim::Duration::from_seconds(3600);
// Clients of a fleet log in at seeded instants within this window; identical
// requests arriving while the first is planned coalesce onto it.
constexpr double kLoginWindowS = 0.1;
constexpr sim::Duration kThink = sim::Duration::from_millis(20);
constexpr sim::Duration kDs500Period = sim::Duration::from_millis(500);

// ds500_steady / inbox_read: 48 clients at San Diego. 48 x 10 rps stays
// inside one ViewMailServer's 500 rps capacity, so every bind after the
// first rides the same plan and the planner runs once.
constexpr std::size_t kFleetClients = 48;
constexpr double kFleetRateRps = 10.0;

// access_storm: open-loop arrivals on the 18-node world.
constexpr std::size_t kStormNodesPerSite = 6;
constexpr std::size_t kStormArrivals = 1000;
constexpr double kStormArrivalsPerS = 20.0;
constexpr double kStormZipfExponent = 1.4;
constexpr sim::Duration kStormDriftPeriod = sim::Duration::from_seconds(15);

// churn: 24 San Diego + 8 Seattle clients under the fault cycle.
constexpr std::size_t kChurnSdClients = 24;
constexpr std::size_t kChurnSeaClients = 8;
constexpr double kChurnRateRps = 10.0;
constexpr sim::Duration kChurnThink = sim::Duration::from_millis(100);
// The disturbance cycle repeats so that every client spends most of its run
// under one disturbance or another; scripts are sized to span all cycles
// (a Seattle op crosses the 200 ms WAN, so Seattle clients issue fewer).
constexpr std::size_t kChurnCycles = 3;
constexpr double kChurnCycleS = 45.0;
constexpr std::size_t kChurnSdSends = 600;
constexpr std::size_t kChurnSeaSends = 180;

struct Rep {
  Rep(std::uint64_t seed, Tracer* t, bool setup) :
      rng(seed), tracer(t), setup_only(setup) {}

  util::Rng rng;
  Tracer* tracer;
  bool setup_only;
  WallClock::time_point started = WallClock::now();
  core::CaseStudySites sites;
  // Declaration order is destruction order reversed: the controller and the
  // generator (which hold references into the framework) go first.
  std::unique_ptr<core::Framework> fw;
  mail::MailConfigPtr config;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<runtime::AdaptationController> controller;
  RepResult result;
  std::uint64_t measured_events = 0;
  std::size_t pending_peak = 0;
  std::uint64_t phase_span = 0;  // open `setup` or `measured` wall span

  void violation(std::string what) {
    result.violations.push_back(std::move(what));
  }
  double wall() const { return tracer != nullptr ? tracer->wall_now() : 0.0; }
  std::uint64_t open(const char* name, std::uint64_t parent = 0) {
    return tracer != nullptr
               ? tracer->begin(Domain::kWall, name, 0, tracer->wall_now(),
                               parent)
               : 0;
  }
  void close(std::uint64_t span) {
    if (tracer != nullptr) tracer->end(span, tracer->wall_now());
  }
  // A fault or disturbance firing, as a sim-time instant.
  void mark(const std::string& name, const std::string& args = {}) {
    if (tracer != nullptr) {
      tracer->instant(name, fw->simulator().now().seconds(), args);
    }
  }
};

// Runs the simulator in chunks until `done()`, tracing each chunk as a
// child of wall span `parent`; false when the phase hit kPhaseLimit of
// simulated time without finishing.
bool drive(Rep& rep, const std::function<bool()>& done, std::uint64_t parent,
           bool measured) {
  sim::Simulator& sim = rep.fw->simulator();
  const sim::Time deadline = sim.now() + kPhaseLimit;
  while (!done()) {
    if (sim.now() >= deadline) return false;
    const double w0 = rep.wall();
    const double s0 = sim.now().seconds();
    const std::size_t events = rep.fw->run_for(kChunk);
    if (measured) {
      rep.measured_events += events;
      rep.pending_peak = std::max(rep.pending_peak, sim.pending_events());
    }
    if (rep.tracer != nullptr) {
      rep.tracer->span(Domain::kWall, "sim.run", 0, w0, rep.wall(), parent,
                       "\"events\":" + std::to_string(events) +
                           ",\"sim_from_s\":" + std::to_string(s0));
    }
  }
  return true;
}

// The case-study world with the mail service registered; views keep
// coherent under `coherence` (Fig. 7's DS500 unless stated).
void build_world(Rep& rep, std::size_t nodes_per_site,
                 coherence::CoherencePolicy coherence =
                     coherence::CoherencePolicy::time_based(kDs500Period)) {
  const std::uint64_t world = rep.open("setup.world", rep.phase_span);
  core::CaseStudyOptions options;
  options.nodes_per_site = nodes_per_site;
  net::Network network = core::case_study_network(&rep.sites, options);
  core::FrameworkOptions fw_options;
  fw_options.lookup_node = rep.sites.new_york[0];
  fw_options.server_node = rep.sites.new_york[0];
  rep.fw = std::make_unique<core::Framework>(std::move(network), fw_options);
  rep.config = std::make_shared<mail::MailServiceConfig>();
  rep.config->view_policy = coherence;
  if (!mail::register_mail_factories(rep.fw->runtime().factories(),
                                     rep.config)
           .is_ok()) {
    rep.violation("mail factories did not register");
  }
  rep.close(world);

  const std::uint64_t reg = rep.open("setup.register", rep.phase_span);
  runtime::ServiceRegistration registration =
      mail::mail_registration(rep.sites.mail_home);
  // Plan to completion: no wall-clock deadline may decide a plan.
  registration.anytime_deadline_s = 0.0;
  const util::Status st = rep.fw->register_service(std::move(registration),
                                                   mail::mail_translator());
  if (!st.is_ok()) rep.violation("register_service: " + st.to_string());
  rep.gen = std::make_unique<Generator>(*rep.fw, rep.config, rep.tracer);
  rep.close(reg);
}

// Binds every client at a seeded instant within the login window and drives
// the simulator until all binds settle.
void login(Rep& rep, const std::vector<Client*>& clients) {
  const std::uint64_t span = rep.open("setup.warmup_binds", rep.phase_span);
  auto settled = std::make_shared<std::size_t>(0);
  for (Client* c : clients) {
    const auto at = sim::Duration::from_seconds(
        rep.rng.uniform(0.0, kLoginWindowS));
    rep.fw->simulator().schedule(at, [&rep, c, settled] {
      rep.gen->bind(*c, [&rep, settled](bool ok) {
        ++*settled;
        if (!ok) rep.violation("warm-up bind failed");
      });
    });
  }
  if (!drive(rep, [&] { return *settled == clients.size(); }, span, false)) {
    rep.violation("warm-up binds did not settle");
  }
  rep.close(span);
}

// Times the measured phase: `start` schedules the workload's activity, then
// the simulator runs until `done()`.
void measure(Rep& rep, const std::function<void()>& start,
             const std::function<bool()>& done) {
  // Set-up is everything before the measured clock starts.
  rep.result.setup_wall_s = seconds_since(rep.started);
  rep.close(rep.phase_span);
  if (rep.setup_only) return;
  rep.phase_span = rep.open("measured");
  rep.gen->set_measuring(true);
  const WallClock::time_point t0 = WallClock::now();
  start();
  if (!drive(rep, done, rep.phase_span, true)) {
    rep.violation("measured phase did not finish within the sim-time limit");
  }
  rep.result.measured_wall_s = seconds_since(t0);
  rep.gen->set_measuring(false);
  rep.close(rep.phase_span);
  rep.phase_span = 0;
}

// Drops one departing client's declared load from every shared instance its
// bind accounted it on (all placements but the client entry).
void release(Rep& rep, const Client& client) {
  if (!client.outcome) return;
  const planner::DeploymentPlan& plan = client.outcome->plan;
  for (std::size_t i = 0; i < plan.placements.size(); ++i) {
    const planner::Placement& p = plan.placements[i];
    if (p.id == plan.entry) continue;
    (void)rep.fw->server().release_load(kService, client.outcome->instances[i],
                                        p.inbound_rate_rps);
  }
}

std::vector<Client*> add_fleet(Rep& rep, const char* prefix, net::NodeId node,
                               std::int64_t trust, double rate_rps,
                               std::size_t count) {
  std::vector<Client*> out;
  for (std::size_t i = 0; i < count; ++i) {
    std::string user = prefix;
    user += std::to_string(i);
    out.push_back(&rep.gen->add_client(user, node, trust, rate_rps,
                                       rep.rng.fork()));
  }
  return out;
}

// Starts each client's script and measures until all have finished.
void run_fleet(
    Rep& rep, const std::vector<Client*>& clients,
    const std::function<std::vector<Op>(const Client&)>& script_for,
    sim::Duration think, const std::function<void()>& disturbances = {}) {
  auto finished = std::make_shared<std::size_t>(0);
  measure(
      rep,
      [&] {
        for (Client* c : clients) {
          rep.gen->run_script(*c, script_for(*c), think,
                              [finished] { ++*finished; });
        }
        if (disturbances) disturbances();
      },
      [&] { return *finished == clients.size(); });
}

// ---- ds500_steady / inbox_read ---------------------------------------------

std::vector<Client*> fleet_setup(Rep& rep) {
  build_world(rep, 3);
  std::vector<Client*> clients = add_fleet(
      rep, "u", rep.sites.sd_client, 4, kFleetRateRps, kFleetClients);
  login(rep, clients);
  return clients;
}

// `sends` sends with a receive after every `per_receive`-th; every 5th
// receive asks for high-sensitivity mail (forwarded to the home). The
// paper's mix is 10:1.
std::vector<Op> mail_mix(std::size_t sends, std::size_t per_receive) {
  std::vector<Op> ops;
  std::size_t receives = 0;
  for (std::size_t s = 1; s <= sends; ++s) {
    ops.push_back(Op::kSend);
    if (s % per_receive == 0) {
      ops.push_back(++receives % 5 == 0 ? Op::kReceiveHigh : Op::kReceive);
    }
  }
  return ops;
}

// 1:4 from the first op: 100 x (send, 4 receives). Every 3rd receive is
// high-sensitivity and crosses the tunnel; at every 2nd the p50 would sit on
// the gap between local and forwarded receives and jump between them.
std::vector<Op> inbox_script() {
  std::vector<Op> ops;
  std::size_t receives = 0;
  for (std::size_t s = 0; s < 100; ++s) {
    ops.push_back(Op::kSend);
    for (int r = 0; r < 4; ++r) {
      ops.push_back(++receives % 3 == 0 ? Op::kReceiveHigh : Op::kReceive);
    }
  }
  return ops;
}

void ds500_steady(Rep& rep) {
  const std::vector<Client*> clients = fleet_setup(rep);
  const std::vector<Op> script = mail_mix(1500, 10);
  run_fleet(rep, clients, [&](const Client&) { return script; }, kThink);
}

void inbox_read(Rep& rep) {
  const std::vector<Client*> clients = fleet_setup(rep);
  const std::vector<Op> script = inbox_script();
  run_fleet(rep, clients, [&](const Client&) { return script; }, kThink);
}

// ---- access_storm ----------------------------------------------------------

struct StormKey {
  net::NodeId node;
  std::int64_t trust;
  double rate_rps;
};

// client node x allowed TrustLevel x power-of-two declared-rate bucket:
// 6 x 4 x 5 at New York and San Diego, 6 x 2 x 5 at Seattle (whose nodes
// only host the ViewMailClient) = 300 keys, in popularity order. Ranks
// cycle San Diego, New York, Seattle (each site's keys in a fixed shuffled
// order), so the arrival mix is about half San Diego and the median access
// sits inside the San Diego latency cluster rather than on a gap between
// sites.
std::vector<StormKey> storm_keys(const core::CaseStudySites& sites) {
  const double rates[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  util::Rng order(0x5709A11CEULL);
  const auto site_keys = [&](const std::vector<net::NodeId>& nodes,
                             std::int64_t max_trust) {
    std::vector<StormKey> keys;
    for (net::NodeId node : nodes) {
      for (std::int64_t trust = 1; trust <= max_trust; ++trust) {
        for (double rate : rates) keys.push_back({node, trust, rate});
      }
    }
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
      std::swap(keys[i], keys[order.uniform_u64(0, i)]);
    }
    return keys;
  };
  const std::vector<StormKey> per_site[] = {site_keys(sites.san_diego, 4),
                                            site_keys(sites.new_york, 4),
                                            site_keys(sites.seattle, 2)};
  std::vector<StormKey> keys;
  for (std::size_t i = 0; keys.size() < 300; ++i) {
    for (const std::vector<StormKey>& site : per_site) {
      if (i < site.size()) keys.push_back(site[i]);
    }
  }
  return keys;
}

// The arrival sequence: key k (1-based rank) appears round(N * p_k) times
// with p_k proportional to k^-s (largest remainders fill up to N), in one
// fixed shuffled order. The seed sets when each arrival comes, not which
// key it carries: with seeded key order, which views get deployed where
// (and so the work and memory of a repetition) swung by several percent
// from seed to seed.
std::vector<std::size_t> storm_sequence(std::size_t keys) {
  std::vector<double> weight(keys);
  double norm = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    weight[k] = 1.0 / std::pow(static_cast<double>(k + 1), kStormZipfExponent);
    norm += weight[k];
  }
  std::vector<std::size_t> count(keys);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t total = 0;
  for (std::size_t k = 0; k < keys; ++k) {
    const double exact =
        static_cast<double>(kStormArrivals) * weight[k] / norm;
    count[k] = static_cast<std::size_t>(exact);
    total += count[k];
    remainders.emplace_back(-(exact - static_cast<double>(count[k])), k);
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t i = 0; total < kStormArrivals; ++i, ++total) {
    ++count[remainders[i].second];
  }
  std::vector<std::size_t> sequence;
  for (std::size_t k = 0; k < keys; ++k) {
    sequence.insert(sequence.end(), count[k], k);
  }
  util::Rng order(0x0D0E5EEDULL);
  for (std::size_t i = sequence.size() - 1; i > 0; --i) {
    std::swap(sequence[i], sequence[order.uniform_u64(0, i)]);
  }
  return sequence;
}

struct StormState {
  std::vector<StormKey> keys;
  std::vector<std::size_t> sequence;
  util::Rng arrivals;
  util::Rng drift;
  std::size_t arrived = 0;
  std::size_t left = 0;
  net::LinkId wan;
};

void storm_arrival(Rep& rep, StormState& st) {
  const StormKey& key = st.keys[st.sequence[st.arrived]];
  std::string user = "s";
  user += std::to_string(st.arrived);
  Client& c = rep.gen->add_client(user, key.node, key.trust, key.rate_rps,
                                  st.arrivals.fork());
  // Each arrival binds, sends three messages, reads them back and leaves.
  rep.gen->bind(c, [&rep, &st, client = &c](bool ok) {
    if (!ok) {
      ++st.left;
      return;
    }
    rep.gen->run_script(
        *client, {Op::kSend, Op::kSend, Op::kSend, Op::kReceive}, kThink,
        [&rep, &st, client] {
          release(rep, *client);
          ++st.left;
        });
  });
  if (++st.arrived < kStormArrivals) {
    const double gap = st.arrivals.exponential(kStormArrivalsPerS);
    rep.fw->simulator().schedule(sim::Duration::from_seconds(gap),
                                 [&rep, &st] { storm_arrival(rep, st); });
  }
}

// A monitor-reported drift of the San Diego <-> New York latency every
// period: each report bumps the environment epoch, so every cached plan goes
// stale at once.
void storm_drift(Rep& rep, StormState& st) {
  const double ms = 100.0 * st.drift.uniform(0.95, 1.05);
  rep.fw->monitor().set_link_latency(st.wan, sim::Duration::from_millis(ms));
  rep.mark("fault.wan_drift", "\"latency_ms\":" + std::to_string(ms));
  if (st.arrived < kStormArrivals) {
    rep.fw->simulator().schedule(kStormDriftPeriod,
                                 [&rep, &st] { storm_drift(rep, st); });
  }
}

void access_storm(Rep& rep) {
  // DS0, no propagation: the data plane stays light, and a view's memory
  // does not grow with how many other views the storm happened to deploy.
  build_world(rep, kStormNodesPerSite, coherence::CoherencePolicy::none());
  // Warm-up: one bind from each site's client node.
  std::vector<Client*> warm = {
      &rep.gen->add_client("w-ny", rep.sites.ny_client, 4, 8.0, rep.rng.fork()),
      &rep.gen->add_client("w-sd", rep.sites.sd_client, 4, 8.0, rep.rng.fork()),
      &rep.gen->add_client("w-sea", rep.sites.sea_client, 2, 8.0,
                           rep.rng.fork())};
  login(rep, warm);

  StormState st{storm_keys(rep.sites), {}, rep.rng.fork(), rep.rng.fork(),
                0, 0, {}};
  st.sequence = storm_sequence(st.keys.size());
  const auto wan = rep.fw->network().link_between(rep.sites.san_diego[0],
                                                  rep.sites.new_york[0]);
  if (!wan) {
    rep.violation("case-study world has no San Diego <-> New York link");
    return;
  }
  st.wan = *wan;

  measure(
      rep,
      [&] {
        storm_arrival(rep, st);
        rep.fw->simulator().schedule(kStormDriftPeriod,
                                     [&rep, &st] { storm_drift(rep, st); });
      },
      [&] { return st.left == kStormArrivals; });

  // Every departed client released its load; with the warm-up clients
  // released too, the pool's load accounting must return to zero.
  for (Client* c : warm) release(rep, *c);
  const double residual = pooled_load_rps(*rep.fw);
  if (residual > 1e-6) {
    rep.violation("pooled load did not return to zero after release: " +
                  std::to_string(residual) + " rps");
  }
}

// ---- churn -----------------------------------------------------------------

// The node hosting tracked deployment `index`'s ViewMailServer, if any.
std::optional<net::NodeId> view_node(const Rep& rep, std::size_t index) {
  if (index >= rep.controller->tracked_count()) return std::nullopt;
  for (const planner::Placement& p :
       rep.controller->current_outcome(index).plan.placements) {
    if (p.component->name == "ViewMailServer") return p.node;
  }
  return std::nullopt;
}

// A disturbance firing, with where the tracked San Diego view sits.
void churn_mark(Rep& rep, const char* name, std::string args = {}) {
  if (rep.tracer == nullptr) return;
  const auto view = view_node(rep, 0);
  if (!args.empty()) args += ",";
  args += "\"view_node\":";
  args += view ? std::to_string(view->value) : "null";
  rep.mark(name, args);
}

// One pass of the disturbance cycle, starting `start` seconds into the
// measured phase: adaptation_sweep's disturbance classes in sequence, a loss
// burst, then one silent crash/revive that only lease expiry can detect.
// Each disturbance lasts long enough to touch a few percent of all ops, so
// the tail percentiles sit inside its population rather than on its edge.
void churn_cycle(Rep& rep, double start, net::LinkId wan) {
  const auto at = [&rep, start](double offset_s, std::function<void()> fn) {
    rep.fw->simulator().schedule(sim::Duration::from_seconds(start + offset_s),
                                 std::move(fn));
  };
  const net::NodeId client_node = rep.sites.sd_client;
  auto moved = std::make_shared<net::NodeId>();

  // Rolling maintenance: drain the client node (its view walks off), let it
  // back, then drain wherever the view landed so the view walks home.
  at(3.0, [&rep, client_node] {
    churn_mark(rep, "fault.drain",
               "\"node\":" + std::to_string(client_node.value));
    rep.controller->drain_node(client_node);
  });
  at(3.8, [&rep, client_node] {
    churn_mark(rep, "fault.undrain");
    rep.controller->undrain_node(client_node);
  });
  at(4.0, [&rep, moved, client_node] {
    const auto node = view_node(rep, 0);
    if (!node || *node == client_node) return;
    *moved = *node;
    churn_mark(rep, "fault.drain", "\"node\":" + std::to_string(node->value));
    rep.controller->drain_node(*node);
  });
  at(5.0, [&rep, moved] {
    if (!moved->valid()) return;
    churn_mark(rep, "fault.undrain");
    rep.controller->undrain_node(*moved);
  });

  // WAN brownout: the first step stays within the controller's 1.5x slack,
  // the next two go past it, then ten seconds later the link recovers. At
  // 350 ms a flush round trip stays clear of the 1 s propagation period;
  // near it, whether a period's flush is skipped turns on jitter.
  const std::pair<double, double> steps[] = {
      {8.0, 120.0}, {9.0, 200.0}, {10.0, 350.0}, {20.0, 100.0}};
  for (const auto& [offset, ms] : steps) {
    at(offset, [&rep, wan, latency = ms] {
      churn_mark(rep, "fault.wan_latency",
                 "\"latency_ms\":" + std::to_string(latency));
      rep.fw->monitor().set_link_latency(wan,
                                         sim::Duration::from_millis(latency));
    });
  }

  // Capacity squeeze: the same WAN link's bandwidth drops below the
  // controller's floor (half the planned bottleneck), then recovers. A node
  // CPU squeeze below a deployment's planned footprint would starve the
  // whole fleet instead: footprints are planned per client, while every
  // San Diego client shares one view.
  const std::pair<double, double> squeeze[] = {{23.0, 20e6}, {27.0, 50e6}};
  for (const auto& [offset, bps] : squeeze) {
    at(offset, [&rep, wan, bandwidth = bps] {
      churn_mark(rep, "fault.wan_bandwidth",
                 "\"mbps\":" + std::to_string(bandwidth / 1e6));
      rep.fw->monitor().set_link_bandwidth(wan, bandwidth);
    });
  }

  // A seeded FaultPlan per fault: a 2% loss burst on the WAN, whose dropped
  // requests and flushes the retry layer and coherence requeue absorb, then
  // a silent crash of a node hosting no instance, revived six seconds
  // later. Lease expiry must detect the crash and the controller must find
  // every deployment still valid. (Crashing a busy node would fail requests
  // queued on its CPU with an application error, which no retry covers.)
  at(30.0, [&rep, wan, seed = rep.rng.next_u64()] {
    core::FaultPlan plan(seed);
    plan.loss_burst(wan, sim::Duration::zero(), sim::Duration::from_seconds(2),
                    0.02);
    churn_mark(rep, "fault.loss_burst", "\"loss\":0.02,\"seconds\":2");
    plan.arm(*rep.fw);
  });
  at(34.0, [&rep, seed = rep.rng.next_u64()] {
    std::optional<net::NodeId> target;
    for (net::NodeId node : {rep.sites.san_diego[1], rep.sites.seattle[1]}) {
      if (rep.fw->runtime().instances_on(node).empty()) {
        target = node;
        break;
      }
    }
    if (!target) {
      rep.violation("churn: no idle node left to crash");
      return;
    }
    core::FaultPlan plan(seed);
    plan.crash_node_at(sim::Duration::zero(), *target)
        .revive_node_at(sim::Duration::from_seconds(6), *target);
    churn_mark(rep, "fault.crash", "\"node\":" + std::to_string(target->value));
    plan.arm(*rep.fw);
  });
}

void churn_disturbances(Rep& rep) {
  const auto wan = rep.fw->network().link_between(rep.sites.san_diego[0],
                                                  rep.sites.new_york[0]);
  if (!wan) {
    rep.violation("case-study world has no San Diego <-> New York link");
    return;
  }
  // Each cycle starts at a seeded offset of up to one second; steps within
  // a cycle keep their order.
  for (std::size_t c = 0; c < kChurnCycles; ++c) {
    const double start =
        static_cast<double>(c) * kChurnCycleS + rep.rng.uniform(0.0, 1.0);
    churn_cycle(rep, start, *wan);
  }
}

void churn(Rep& rep) {
  // DS1000: with 500 ms propagation a San Diego view spends about half its
  // time blocked on flushes, which puts the median send on the edge
  // between blocked and unblocked.
  build_world(rep, 3,
              coherence::CoherencePolicy::time_based(
                  sim::Duration::from_millis(1000)));
  std::vector<Client*> clients =
      add_fleet(rep, "c-sd", rep.sites.sd_client, 4, kChurnRateRps,
                kChurnSdClients);
  const std::vector<Client*> sea = add_fleet(
      rep, "c-sea", rep.sites.sea_client, 2, kChurnRateRps, kChurnSeaClients);
  clients.insert(clients.end(), sea.begin(), sea.end());
  login(rep, clients);

  runtime::AdaptationParams params;
  // Retired instances must outlive every response still headed their way:
  // an Encryptor uninstalled while its tunnel reply crosses a browned-out
  // WAN is freed under that reply's callback.
  params.drain = sim::Duration::from_seconds(5);
  rep.controller = std::make_unique<runtime::AdaptationController>(
      rep.fw->runtime(), rep.fw->server(), rep.fw->monitor(), kService,
      params);
  // One tracked deployment per distinct entry: clients that hit the cache
  // share the first client's entry, and a repair grafts onto it for all.
  std::set<runtime::RuntimeInstanceId> tracked;
  // Retries bridge every cutover; the generous attempt timeout keeps the
  // browned-out WAN from turning slowness into failures.
  runtime::RetryPolicy policy;
  policy.attempt_timeout = sim::Duration::from_seconds(5);
  policy.backoff_base = sim::Duration::from_millis(200);
  policy.backoff_cap = sim::Duration::from_seconds(1);
  policy.max_attempts = 10;
  policy.rebind_on_unreachable = true;
  policy.seed = rep.rng.next_u64();
  for (Client* c : clients) {
    if (c->outcome && tracked.insert(c->outcome->entry).second) {
      planner::PlanRequest request = c->request;
      request.client_node = c->node;
      rep.controller->track(*c->outcome, request);
    }
    c->proxy->enable_retries(policy, &rep.fw->retry_telemetry());
  }
  rep.fw->enable_failure_detection();

  // 2:1, so the receive tail has enough samples to be steady.
  const std::vector<Op> sd_script = mail_mix(kChurnSdSends, 2);
  const std::vector<Op> sea_script = mail_mix(kChurnSeaSends, 2);
  run_fleet(
      rep, clients,
      [&](const Client& c) {
        return c.node == rep.sites.sd_client ? sd_script : sea_script;
      },
      kChurnThink, [&rep] { churn_disturbances(rep); });
  if (rep.tracer != nullptr) trace_adaptation(*rep.tracer, *rep.controller);
}

// ---- direct layer timing (traced repetitions) ------------------------------

// Replays each distinct cold PlanRequest through a fresh planner::Planner
// over the final environment and reuse pool; rounds repeat until 1000
// samples or one second, so small workloads still give a p99.
void replay_planner(Rep& rep) {
  std::map<std::string, planner::PlanRequest> distinct;
  for (const auto& c : rep.gen->clients()) {
    if (!c->outcome || !ran_cold_path(*c->outcome)) continue;
    planner::PlanRequest r = c->request;
    r.client_node = c->node;
    r.code_origin = rep.sites.mail_home;
    distinct.emplace(runtime::plan_fingerprint(r), r);
  }
  const spec::ServiceSpec* spec = rep.fw->server().service_spec(kService);
  if (distinct.empty() || spec == nullptr) return;
  const std::uint64_t span = rep.open("replay.planner");
  const auto translator = mail::mail_translator();
  const planner::EnvironmentView env(rep.fw->network(), *translator);
  const auto& pool = rep.fw->server().existing_instances(kService);
  std::vector<double> us;
  const WallClock::time_point start = WallClock::now();
  while (us.size() < 1000 && (us.empty() || seconds_since(start) < 1.0)) {
    for (const auto& [fingerprint, request] : distinct) {
      const planner::Planner fresh(*spec, env);
      const WallClock::time_point t0 = WallClock::now();
      const auto plan = fresh.plan(request, pool);
      us.push_back(seconds_since(t0) * 1e6);
      if (!plan) rep.violation("replayed cold request is unsatisfiable");
    }
  }
  rep.close(span);
  Readings& layers = rep.result.layers;
  if (auto r = percentile(us, 50.0)) layers["planner.replay_us_p50"] = *r;
  if (auto r = percentile(us, 99.0)) layers["planner.replay_us_p99"] = *r;
}

// Times crypto::seal/unseal on a mean-sized message body.
void time_crypto(Rep& rep) {
  const std::uint64_t span = rep.open("replay.crypto");
  const crypto::SymmetricKey key = crypto::derive_key(0x5EA1, "psfbench");
  std::vector<std::uint8_t> body = message_body(1, 1);
  body.resize(kMeanBodyBytes);
  std::vector<double> seal_ns;
  std::vector<std::uint8_t> out;
  for (std::uint64_t nonce = 1; nonce <= 2000; ++nonce) {
    const WallClock::time_point t0 = WallClock::now();
    const crypto::SealedBlob blob = crypto::seal(key, nonce, body);
    seal_ns.push_back(seconds_since(t0) * 1e9);
    if (!crypto::unseal(key, blob, out) || out != body) {
      rep.violation("crypto::unseal did not return the sealed plaintext");
      break;
    }
  }
  rep.close(span);
  if (auto r = percentile(seal_ns, 50.0)) {
    rep.result.layers["crypto.seal_ns_per_kb"] =
        Reading{r->value * 1024.0 / static_cast<double>(kMeanBodyBytes), r->n};
  }
}

const std::pair<const char*, void (*)(Rep&)> kWorkloads[] = {
    {"ds500_steady", ds500_steady},
    {"inbox_read", inbox_read},
    {"access_storm", access_storm},
    {"churn", churn},
};

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const auto& [name, run] : kWorkloads) names.emplace_back(name);
  return names;
}

RepResult run_rep(const std::string& workload, std::uint64_t seed,
                  Tracer* tracer, bool setup_only) {
  Rep rep(seed, tracer, setup_only);
  rep.phase_span = rep.open("setup");
  const auto* entry =
      std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                   [&](const auto& w) { return workload == w.first; });
  if (entry == std::end(kWorkloads)) {
    rep.violation("unknown workload " + workload);
    return std::move(rep.result);
  }
  entry->second(rep);
  if (rep.gen == nullptr || setup_only) return std::move(rep.result);

  const Observations& obs = rep.gen->observations();
  std::vector<const runtime::AccessOutcome*> binds;
  for (const auto& c : rep.gen->clients()) {
    if (c->outcome) binds.push_back(&*c->outcome);
  }
  RepResult& r = rep.result;
  r.layers = probe_layers(*rep.fw, binds, rep.controller.get(),
                          obs.total(obs.ok));
  const double ops =
      static_cast<double>(std::max<std::uint64_t>(obs.measured_ops, 1));
  const double events = static_cast<double>(rep.measured_events);
  r.layers["sim.events"] = Reading{events, 0};
  r.layers["sim.events_per_op"] = Reading{events / ops, 0};
  r.layers["sim.wall_ns_per_event"] =
      Reading{r.measured_wall_s * 1e9 / std::max(events, 1.0), 0};
  r.layers["sim.pending_peak"] =
      Reading{static_cast<double>(rep.pending_peak), 0};
  r.layers["bench.backlog_peak"] =
      Reading{static_cast<double>(obs.backlog_peak), 0};

  // Correctness at quiescence.
  for (std::size_t op = 0; op < obs.issued.size(); ++op) {
    if (obs.issued[op] != obs.ok[op] + obs.failed[op]) {
      rep.violation("issued != ok + failed for op class " +
                    std::to_string(op));
    }
  }
  if (obs.duplicate_callbacks != 0) rep.violation("a callback fired twice");
  if (obs.integrity_failures != 0) {
    rep.violation(std::to_string(obs.integrity_failures) +
                  " received messages did not match what was sent");
  }
  if (obs.messages_received == 0) rep.violation("no receive returned mail");
  if (r.layers["crypto.mac_failures"].value != 0.0) {
    rep.violation("MAC verification failed");
  }

  if (tracer != nullptr) {
    replay_planner(rep);
    time_crypto(rep);
  }
  r.obs = obs;
  return std::move(rep.result);
}

}  // namespace psf::bench
