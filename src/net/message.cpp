#include "net/message.hpp"

namespace cg::net {

std::optional<MsgType> type_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
    const auto type = static_cast<MsgType>(i);
    if (to_string(type) == name) return type;
  }
  return std::nullopt;
}

JobId job_of(const Message& msg) {
  return std::visit(
      [](const auto& m) -> JobId {
        if constexpr (requires { m.job; }) {
          return m.job;
        } else {
          return JobId::none();
        }
      },
      msg);
}

AgentId agent_of(const Message& msg) {
  return std::visit(
      [](const auto& m) -> AgentId {
        if constexpr (requires { m.agent; }) {
          return m.agent;
        } else {
          return AgentId::none();
        }
      },
      msg);
}

}  // namespace cg::net
