#include "core/framework.hpp"

#include "analysis/analyzer.hpp"
#include "util/assert.hpp"

namespace psf::core {

Framework::Framework(net::Network network, FrameworkOptions options)
    : network_(std::move(network)),
      sim_(),
      runtime_(sim_, network_),
      lookup_(options.lookup_node),
      server_(runtime_, options.server_node, lookup_),
      monitor_(sim_, network_) {
  PSF_CHECK_MSG(network_.node_count() > 0, "empty network");
  PSF_CHECK(options.lookup_node.value < network_.node_count());
  PSF_CHECK(options.server_node.value < network_.node_count());
  // Every monitor-reported change bumps the server's environment epochs so
  // cached access paths planned against the old topology are not replayed.
  server_.attach_monitor(monitor_);
}

util::Status Framework::register_service(
    runtime::ServiceRegistration registration,
    std::shared_ptr<const planner::CredentialMapTranslator> translator) {
  // Pre-flight: run the static analyzer before anything touches the planner
  // or runtime. A spec with error-level findings would fail in confusing
  // ways mid-plan (or worse, plan wrongly); reject it here with the full
  // diagnostic list so the author can fix every problem in one round.
  analysis::DiagnosticList diags = analysis::analyze(registration.spec);
  if (diags.has_errors()) {
    return util::failed_precondition(
        "service spec '" + registration.spec.name +
        "' failed static analysis:\n" + diags.render_text());
  }

  util::Status result = util::internal_error("registration did not complete");
  bool completed = false;
  server_.register_service(std::move(registration), std::move(translator),
                           [&result, &completed](util::Status st) {
                             result = st;
                             completed = true;
                           });
  sim_.run();
  if (!completed) {
    return util::internal_error(
        "registration callback never fired (simulation deadlock)");
  }
  return result;
}

std::unique_ptr<runtime::GenericProxy> Framework::make_proxy(
    net::NodeId client_node, const std::string& service,
    planner::PlanRequest defaults) {
  return std::make_unique<runtime::GenericProxy>(runtime_, lookup(),
                                                 client_node, service,
                                                 std::move(defaults));
}

std::vector<runtime::RuntimeInstanceId> Framework::fail_node(
    net::NodeId node) {
  auto lost = crash_node(node);
  monitor_.report_node_failure(node);
  return lost;
}

std::vector<runtime::RuntimeInstanceId> Framework::crash_node(
    net::NodeId node) {
  auto lost = runtime_.crash_node(node);
  network_.set_node_up(node, false);
  if (lease_) lease_->note_crash(node, sim_.now());
  return lost;
}

void Framework::revive_node(net::NodeId node) {
  network_.set_node_up(node, true);
}

runtime::LeaseManager& Framework::enable_failure_detection(
    runtime::LeaseParams params) {
  PSF_CHECK_MSG(lease_ == nullptr, "failure detection already enabled");
  lease_ = std::make_unique<runtime::LeaseManager>(runtime_, monitor_,
                                                   lookup().host(), params);
  lease_->watch_all();
  lease_->start();
  return *lease_;
}

runtime::AdaptationController& Framework::enable_adaptation(
    const std::string& service) {
  controllers_.push_back(std::make_unique<runtime::AdaptationController>(
      runtime_, server_, monitor_, service));
  return *controllers_.back();
}

}  // namespace psf::core
