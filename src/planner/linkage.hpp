// Valid-linkage enumeration (paper §3.3 step 1, Figure 3).
//
// Starting from the interface(s) a client requested, the enumerator finds
// components implementing them and recurses on each component's required
// interfaces, stopping at components with no requirements. The result is the
// set of component trees (chains, in the mail service) that could satisfy
// the request — *before* any placement decision. The planner proper fuses
// this enumeration with mapping (as the paper's implementation does); this
// standalone form exists for Fig. 3, for tools/psdl_check and for tests.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "spec/model.hpp"

namespace psf::planner {

struct LinkageNode {
  const spec::ComponentDef* component = nullptr;
  // One child per required interface, in declaration order.
  std::vector<std::unique_ptr<LinkageNode>> children;
};

struct LinkageTree {
  std::unique_ptr<LinkageNode> root;

  std::size_t size() const;
  bool is_chain() const;
  // For chains: the components from root to leaf.
  std::vector<const spec::ComponentDef*> as_chain() const;
  std::string to_string() const;
};

struct LinkageOptions {
  // Maximum number of components on any root-to-leaf path. Views may require
  // the interface they implement (ViewMailServer chains), so enumeration
  // must be depth-bounded to terminate.
  std::size_t max_depth = 6;
  // Cap on trees produced (safety valve for adversarial specs).
  std::size_t max_trees = 10000;
};

// All valid component trees able to satisfy `interface_name`.
std::vector<LinkageTree> enumerate_linkages(const spec::ServiceSpec& spec,
                                            const std::string& interface_name,
                                            const LinkageOptions& options = {});

// Convenience for Fig. 3: formats each tree on one line
// ("MailClient -> ViewMailServer -> MailServer").
std::vector<std::string> describe_linkages(
    const std::vector<LinkageTree>& trees);

}  // namespace psf::planner
