#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace cg::sim {

LinkSpec LinkSpec::campus() {
  return LinkSpec{
      .name = "campus",
      .latency = Duration::micros(250),        // ~0.5 ms RTT on 100 Mb/s LAN
      .bandwidth_bytes_per_sec = 12.5e6,       // 100 Mb/s
      .jitter_stddev = Duration::micros(40),
  };
}

LinkSpec LinkSpec::wan() {
  return LinkSpec{
      .name = "wan",
      .latency = Duration::millis(9),          // UAB <-> IFCA (~18 ms RTT)
      .bandwidth_bytes_per_sec = 4.0e6,        // ~32 Mb/s effective path
      .jitter_stddev = Duration::millis(1),
  };
}

LinkSpec LinkSpec::local() {
  return LinkSpec{
      .name = "local",
      .latency = Duration::micros(20),
      .bandwidth_bytes_per_sec = 1e9,
      .jitter_stddev = Duration::zero(),
  };
}

void FailureSchedule::add_outage(SimTime start, SimTime end) {
  if (end <= start) throw std::invalid_argument{"add_outage: end <= start"};
  windows_.emplace_back(start, end);
  normalize();
}

void FailureSchedule::normalize() {
  std::sort(windows_.begin(), windows_.end());
  std::vector<std::pair<SimTime, SimTime>> merged;
  for (const auto& w : windows_) {
    if (!merged.empty() && w.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, w.second);
    } else {
      merged.push_back(w);
    }
  }
  windows_ = std::move(merged);
}

bool FailureSchedule::is_down(SimTime t) const {
  // First window starting after t; the candidate is its predecessor.
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](SimTime v, const auto& w) { return v < w.first; });
  if (it == windows_.begin()) return false;
  --it;
  return t < it->second;
}

SimTime FailureSchedule::next_up(SimTime t) const {
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](SimTime v, const auto& w) { return v < w.first; });
  if (it == windows_.begin()) return t;
  --it;
  return t < it->second ? it->second : t;
}

std::optional<SimTime> FailureSchedule::next_outage_after(SimTime t) const {
  auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](SimTime v, const auto& w) { return v < w.first; });
  if (it == windows_.end()) return std::nullopt;
  return it->first;
}

Duration Link::transfer_duration(std::size_t bytes) {
  Duration d = nominal_transfer_duration(bytes);
  if (!spec_.jitter_stddev.is_zero()) {
    const double jitter =
        rng_.normal(0.0, static_cast<double>(spec_.jitter_stddev.count_micros()));
    // Jitter only ever adds delay; a negative sample is folded to positive so
    // the mean penalty stays small but transfers never beat the speed of light.
    d += Duration::micros(static_cast<std::int64_t>(std::llround(std::abs(jitter))));
  }
  return d + extra_latency_;
}

Duration Link::nominal_transfer_duration(std::size_t bytes) const {
  const double serialization_s =
      static_cast<double>(bytes) / spec_.bandwidth_bytes_per_sec;
  return spec_.latency + Duration::from_seconds(serialization_s);
}

Link& Network::add_link(const std::string& a, const std::string& b, LinkSpec spec) {
  auto k = key(a, b);
  auto link = std::make_unique<Link>(std::move(spec), rng_.fork());
  auto [it, inserted] = links_.insert_or_assign(std::move(k), std::move(link));
  ++version_;
  return *it->second;
}

Link& Network::link(const std::string& a, const std::string& b) {
  const auto it = links_.find(key(a, b));
  if (it != links_.end()) return *it->second;
  if (!default_link_) {
    default_link_ = std::make_unique<Link>(LinkSpec::local(), rng_.fork());
  }
  return *default_link_;
}

bool Network::has_link(const std::string& a, const std::string& b) const {
  return links_.contains(key(a, b));
}

std::pair<std::string, std::string> Network::key(const std::string& a,
                                                 const std::string& b) {
  return a <= b ? std::pair{a, b} : std::pair{b, a};
}

}  // namespace cg::sim
