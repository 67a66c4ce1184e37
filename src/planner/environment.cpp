#include "planner/environment.hpp"

namespace psf::planner {

namespace {

spec::PropertyValue coerce(const net::CredentialValue& cred,
                           spec::PropertyType type) {
  switch (type) {
    case spec::PropertyType::kBoolean:
      if (auto* b = std::get_if<bool>(&cred)) {
        return spec::PropertyValue::boolean(*b);
      }
      if (auto* i = std::get_if<std::int64_t>(&cred)) {
        return spec::PropertyValue::boolean(*i != 0);
      }
      return {};
    case spec::PropertyType::kInterval:
      if (auto* i = std::get_if<std::int64_t>(&cred)) {
        return spec::PropertyValue::integer(*i);
      }
      if (auto* d = std::get_if<double>(&cred)) {
        return spec::PropertyValue::integer(static_cast<std::int64_t>(*d));
      }
      return {};
    case spec::PropertyType::kString:
      if (auto* s = std::get_if<std::string>(&cred)) {
        return spec::PropertyValue::string(*s);
      }
      return {};
  }
  return {};
}

}  // namespace

spec::Environment CredentialMapTranslator::translate(
    const net::Credentials& creds,
    const std::vector<CredentialMapping>& mappings) {
  spec::Environment env;
  for (const CredentialMapping& m : mappings) {
    spec::PropertyValue value;
    if (auto cred = creds.get(m.credential)) {
      value = coerce(*cred, m.type);
    }
    if (!value.is_set()) value = m.default_value;
    if (value.is_set()) env.set(m.property, value);
  }
  return env;
}

spec::Environment CredentialMapTranslator::translate_node(
    const net::Node& node) const {
  return translate(node.credentials, node_mappings_);
}

spec::Environment CredentialMapTranslator::translate_link(
    const net::Link& link) const {
  return translate(link.credentials, link_mappings_);
}

EnvironmentView::EnvironmentView(const net::Network& network,
                                 const CredentialMapTranslator& translator)
    : network_(network) {
  node_envs_.reserve(network.node_count());
  for (net::NodeId id : network.all_nodes()) {
    node_envs_.push_back(translator.translate_node(network.node(id)));
  }
  link_envs_.reserve(network.link_count());
  for (net::LinkId id : network.all_links()) {
    link_envs_.push_back(translator.translate_link(network.link(id)));
  }
}

const spec::Environment& EnvironmentView::node_env(net::NodeId id) const {
  PSF_CHECK(id.valid() && id.value < node_envs_.size());
  return node_envs_[id.value];
}

const spec::Environment& EnvironmentView::link_env(net::LinkId id) const {
  PSF_CHECK(id.valid() && id.value < link_envs_.size());
  return link_envs_[id.value];
}

spec::PropertyValue EnvironmentView::transform_along(
    const spec::RuleSet& rules, const std::string& property,
    spec::PropertyValue value, const net::Route& route,
    net::NodeId from) const {
  net::NodeId current = from;
  for (std::size_t i = 0; i < route.links.size(); ++i) {
    const net::LinkId lid = route.links[i];
    const spec::Environment& lenv = link_env(lid);
    value = rules.apply(property, value,
                        lenv.get(property).value_or(spec::PropertyValue()));
    current = network_.link(lid).other(current);
    const bool is_final = i + 1 == route.links.size();
    if (!is_final) {
      const spec::Environment& nenv = node_env(current);
      value = rules.apply(property, value,
                          nenv.get(property).value_or(spec::PropertyValue()));
    }
  }
  return value;
}

}  // namespace psf::planner
