// Broker-side registry of glide-in agents. The paper's key startup result
// rests on this: "information about existing VMs is kept locally by
// CrossBroker", so interactive submission in shared mode skips the
// discovery and selection phases entirely.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "glidein/agent.hpp"

namespace cg::glidein {

class AgentRegistry {
public:
  explicit AgentRegistry(sim::Simulation& sim) : sim_{sim} {}

  /// Creates a new agent bound to a site; the caller submits its carrier job.
  GlideinAgent& create(SiteId site, GlideinAgentConfig config = {});

  /// Permanently removes an agent (after death or dismissal).
  void remove(AgentId id);

  [[nodiscard]] GlideinAgent* find(AgentId id);
  /// The agent whose carrier LRMS job is `job`, if any.
  [[nodiscard]] GlideinAgent* find_by_carrier(JobId job);

  [[nodiscard]] int total_agents() const { return static_cast<int>(agents_.size()); }
  [[nodiscard]] int running_agents() const;

  [[nodiscard]] std::vector<GlideinAgent*> agents();

private:
  sim::Simulation& sim_;
  IdGenerator<AgentId> ids_;
  std::map<AgentId, std::unique_ptr<GlideinAgent>> agents_;
};

}  // namespace cg::glidein
