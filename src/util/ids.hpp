// Strongly typed identifiers for the entities the broker tracks. Each id is
// a distinct type, so a JobId cannot be passed where a SiteId is expected.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>

namespace cg {

template <typename Tag>
class Id {
public:
  constexpr Id() = default;
  constexpr explicit Id(std::uint64_t v) : value_{v} {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }
  constexpr auto operator<=>(const Id&) const = default;

  /// The zero id, meaning "none".
  [[nodiscard]] static constexpr Id none() { return Id{}; }

private:
  std::uint64_t value_ = 0;
};

template <typename Tag>
std::ostream& operator<<(std::ostream& os, Id<Tag> id) {
  return os << Tag::prefix << id.value();
}

struct JobTag { static constexpr const char* prefix = "job-"; };
struct SubJobTag { static constexpr const char* prefix = "sub-"; };
struct SiteTag { static constexpr const char* prefix = "site-"; };
struct NodeTag { static constexpr const char* prefix = "node-"; };
struct AgentTag { static constexpr const char* prefix = "agent-"; };
struct UserTag { static constexpr const char* prefix = "user-"; };
struct LeaseTag { static constexpr const char* prefix = "lease-"; };
struct EndpointTag { static constexpr const char* prefix = "endpoint-"; };

using JobId = Id<JobTag>;
using SubJobId = Id<SubJobTag>;
using SiteId = Id<SiteTag>;
using NodeId = Id<NodeTag>;
using AgentId = Id<AgentTag>;
using UserId = Id<UserTag>;
using LeaseId = Id<LeaseTag>;
/// A control-bus endpoint name interned to a dense id (net::ControlBus).
using EndpointId = Id<EndpointTag>;

/// Monotonic id generator; one per entity class, owned by its registry.
template <typename IdType>
class IdGenerator {
public:
  [[nodiscard]] IdType next() { return IdType{++counter_}; }

private:
  std::uint64_t counter_ = 0;
};

}  // namespace cg

namespace std {
template <typename Tag>
struct hash<cg::Id<Tag>> {
  size_t operator()(cg::Id<Tag> id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
}  // namespace std
