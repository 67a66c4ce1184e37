// Credential→property translation and the planner's environment view
// (paper §3.3: "the planner first needs to translate these credentials into
// properties that the service cares about based on external service-specific
// functions").
//
// Two translators are provided:
//  - CredentialMapTranslator: declarative mapping from network credential
//    names to service property names, with per-property defaults — the
//    "service-supplied external procedure" of §3.1;
//  - TrustBackedTranslator: the §6 extension — node properties are derived
//    from a dRBAC-style trust graph, so cross-domain delegation and
//    revocation drive what the planner sees.
//
// EnvironmentView caches the translated Environment of every node and link,
// and implements property transformation along a route (applying the
// service's modification rules across each link and intermediate node).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "spec/model.hpp"
#include "spec/value.hpp"
#include "trust/trust_graph.hpp"

namespace psf::planner {

class PropertyTranslator {
 public:
  virtual ~PropertyTranslator() = default;

  virtual spec::Environment translate_node(const net::Node& node) const = 0;
  virtual spec::Environment translate_link(const net::Link& link) const = 0;

  // Translates a client principal's credentials into service properties
  // (§3.1: the access request carries the client's credentials, and the
  // planner "first needs to translate these credentials into properties").
  // The generic server merges the result into a request's required
  // properties before planning. Default: no derived properties.
  virtual spec::Environment translate_principal(
      const std::string& principal) const {
    (void)principal;
    return {};
  }
};

// One mapping row: service property <- credential, with an optional default
// used when the credential is absent.
struct CredentialMapping {
  std::string property;    // service property name
  std::string credential;  // network credential name
  spec::PropertyType type = spec::PropertyType::kBoolean;
  spec::PropertyValue default_value;  // unset = no default (property absent)
};

class CredentialMapTranslator : public PropertyTranslator {
 public:
  CredentialMapTranslator() = default;

  CredentialMapTranslator& map_node(CredentialMapping mapping) {
    node_mappings_.push_back(std::move(mapping));
    return *this;
  }
  CredentialMapTranslator& map_link(CredentialMapping mapping) {
    link_mappings_.push_back(std::move(mapping));
    return *this;
  }

  spec::Environment translate_node(const net::Node& node) const override;
  spec::Environment translate_link(const net::Link& link) const override;

 private:
  static spec::Environment translate(
      const net::Credentials& creds,
      const std::vector<CredentialMapping>& mappings);

  std::vector<CredentialMapping> node_mappings_;
  std::vector<CredentialMapping> link_mappings_;
};

// Derives node properties from trust-graph role holdings: property P of node
// n = value of role `role_ns.P` held by principal `principal_prefix + n.name`.
// Boolean properties are held/not-held; interval properties use the role
// value. Link properties fall back to an inner credential-map translator.
class TrustBackedTranslator : public PropertyTranslator {
 public:
  TrustBackedTranslator(const trust::TrustGraph& graph, std::string role_ns,
                        std::vector<CredentialMapping> node_properties,
                        CredentialMapTranslator link_fallback)
      : graph_(graph),
        role_ns_(std::move(role_ns)),
        node_properties_(std::move(node_properties)),
        link_fallback_(std::move(link_fallback)) {}

  spec::Environment translate_node(const net::Node& node) const override;
  spec::Environment translate_link(const net::Link& link) const override;

  // A principal's properties derive from its own role holdings, exactly as
  // node properties do — delegation to a user drives what the planner is
  // asked to guarantee for that user.
  spec::Environment translate_principal(
      const std::string& principal) const override;

 private:
  spec::Environment from_holdings(const trust::Holdings& holdings) const;

  const trust::TrustGraph& graph_;
  std::string role_ns_;
  std::vector<CredentialMapping> node_properties_;
  CredentialMapTranslator link_fallback_;
};

class EnvironmentView {
 public:
  EnvironmentView(const net::Network& network,
                  const PropertyTranslator& translator);

  const net::Network& network() const { return network_; }

  const spec::Environment& node_env(net::NodeId id) const;
  const spec::Environment& link_env(net::LinkId id) const;

  // Translated requirement set of a client principal, memoized: repeated
  // accesses by the same principal (the common case under fleet load)
  // translate once per environment view. A refresh_environment rebuilds the
  // view, so the memo never outlives the credentials it was derived from.
  const spec::Environment& principal_env(const std::string& principal) const;
  std::size_t principal_cache_size() const { return principal_envs_.size(); }

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
  const PropertyTranslator* translator_;
  std::vector<spec::Environment> node_envs_;
  std::vector<spec::Environment> link_envs_;
  mutable std::map<std::string, spec::Environment> principal_envs_;
};

}  // namespace psf::planner
