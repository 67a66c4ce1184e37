// Application-independent credentials attached to network nodes and links.
//
// The paper (§3.3) models the network as nodes/links carrying resource
// characteristics plus credentials that are *not* performance related (e.g.
// administrative domain, physical security of a link). A service-supplied
// translator (planner::CredentialMapTranslator) later maps these into
// service-specific properties such as Confidentiality and TrustLevel.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <variant>

namespace psf::net {

using CredentialValue = std::variant<bool, std::int64_t, double, std::string>;

std::string credential_value_to_string(const CredentialValue& v);

// An ordered map keeps iteration (and thus planner behaviour) deterministic.
class Credentials {
 public:
  void set(std::string name, CredentialValue value) {
    values_[std::move(name)] = std::move(value);
  }

  bool has(const std::string& name) const {
    return values_.find(name) != values_.end();
  }

  std::optional<CredentialValue> get(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  bool get_bool(const std::string& name, bool fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;

  const std::map<std::string, CredentialValue>& all() const { return values_; }
  bool empty() const { return values_.empty(); }

  std::string to_string() const;

 private:
  std::map<std::string, CredentialValue> values_;
};

}  // namespace psf::net
