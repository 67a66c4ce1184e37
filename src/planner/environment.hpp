// Credential→property translation and the planner's environment view
// (paper §3.3: "the planner first needs to translate these credentials into
// properties that the service cares about based on external service-specific
// functions").
//
// CredentialMapTranslator is that function: a declarative mapping from
// network credential names to service property names, with per-property
// defaults — the "service-supplied external procedure" of §3.1.
//
// EnvironmentView caches the translated Environment of every node and link,
// and implements property transformation along a route (applying the
// service's modification rules across each link and intermediate node).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "spec/model.hpp"
#include "spec/value.hpp"

namespace psf::planner {

// One mapping row: service property <- credential, with an optional default
// used when the credential is absent.
struct CredentialMapping {
  std::string property;    // service property name
  std::string credential;  // network credential name
  spec::PropertyType type = spec::PropertyType::kBoolean;
  spec::PropertyValue default_value;  // unset = no default (property absent)
};

class CredentialMapTranslator {
 public:
  CredentialMapTranslator& map_node(CredentialMapping mapping) {
    node_mappings_.push_back(std::move(mapping));
    return *this;
  }
  CredentialMapTranslator& map_link(CredentialMapping mapping) {
    link_mappings_.push_back(std::move(mapping));
    return *this;
  }

  spec::Environment translate_node(const net::Node& node) const;
  spec::Environment translate_link(const net::Link& link) const;

 private:
  static spec::Environment translate(
      const net::Credentials& creds,
      const std::vector<CredentialMapping>& mappings);

  std::vector<CredentialMapping> node_mappings_;
  std::vector<CredentialMapping> link_mappings_;
};

class EnvironmentView {
 public:
  EnvironmentView(const net::Network& network,
                  const CredentialMapTranslator& translator);

  const net::Network& network() const { return network_; }

  const spec::Environment& node_env(net::NodeId id) const;
  const spec::Environment& link_env(net::LinkId id) const;

  // Transforms `value` of property `property` across `route` starting from
  // node `from`: the modification rules are applied for each link crossed
  // and each *intermediate* node traversed (endpoints are the communicating
  // components' own nodes and are not transit environments).
  spec::PropertyValue transform_along(const spec::RuleSet& rules,
                                      const std::string& property,
                                      spec::PropertyValue value,
                                      const net::Route& route,
                                      net::NodeId from) const;

 private:
  const net::Network& network_;
  std::vector<spec::Environment> node_envs_;
  std::vector<spec::Environment> link_envs_;
};

}  // namespace psf::planner
