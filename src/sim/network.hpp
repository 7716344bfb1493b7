// Network model for the simulated grid: point-to-point links with latency,
// bandwidth, jitter, and failure windows. Transfer times follow the usual
// first-order law  t = latency + bytes/bandwidth + jitter,  which is what the
// paper's streaming comparison actually exercises (per-op latency for small
// payloads, bandwidth and buffering for large ones).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace cg::sim {

/// Static characteristics of a link.
struct LinkSpec {
  std::string name;
  Duration latency = Duration::millis(1);      ///< one-way propagation delay
  double bandwidth_bytes_per_sec = 12.5e6;     ///< 100 Mb/s default (campus)
  Duration jitter_stddev = Duration::zero();   ///< per-transfer normal jitter

  /// Campus-grid profile from the paper's first scenario (100 Mb/s LAN).
  [[nodiscard]] static LinkSpec campus();
  /// Wide-area profile (UAB Barcelona <-> IFCA Santander over RedIRIS).
  [[nodiscard]] static LinkSpec wan();
  /// Loopback-like profile for co-located components.
  [[nodiscard]] static LinkSpec local();
};

/// Time windows during which a link is down. Drives the reliable-streaming
/// retry machinery and the broker's failure handling.
class FailureSchedule {
public:
  /// Adds a [start, end) outage window. Windows may be added in any order.
  void add_outage(SimTime start, SimTime end);

  [[nodiscard]] bool is_down(SimTime t) const;
  /// The instant the link next comes back up at-or-after t (t itself if up).
  [[nodiscard]] SimTime next_up(SimTime t) const;
  /// The start of the next outage strictly after t, if any.
  [[nodiscard]] std::optional<SimTime> next_outage_after(SimTime t) const;
  [[nodiscard]] bool empty() const { return windows_.empty(); }

private:
  void normalize();
  // Sorted, disjoint [start, end) windows.
  std::vector<std::pair<SimTime, SimTime>> windows_;
};

/// A directed link with stochastic jitter and a failure schedule. Jitter is
/// sampled from a dedicated RNG stream so transfer timing is reproducible.
class Link {
public:
  Link(LinkSpec spec, Rng rng) : spec_{std::move(spec)}, rng_{std::move(rng)} {}

  [[nodiscard]] const LinkSpec& spec() const { return spec_; }
  [[nodiscard]] FailureSchedule& failures() { return failures_; }
  [[nodiscard]] const FailureSchedule& failures() const { return failures_; }

  [[nodiscard]] bool is_up(SimTime t) const { return !failures_.is_down(t); }

  /// Samples the time to move `bytes` across the link (latency + serialization
  /// + jitter). Does not consult the failure schedule; callers decide what a
  /// down link means (drop vs. spool) per streaming mode.
  [[nodiscard]] Duration transfer_duration(std::size_t bytes);

  /// Deterministic transfer time with zero jitter (used by capacity planning).
  [[nodiscard]] Duration nominal_transfer_duration(std::size_t bytes) const;

  /// Fault injection: extra one-way latency added to every transfer while a
  /// degradation fault is active. Not part of nominal_transfer_duration, so
  /// capacity planning keeps seeing the healthy link.
  void set_extra_latency(Duration extra) { extra_latency_ = extra; }
  [[nodiscard]] Duration extra_latency() const { return extra_latency_; }

private:
  LinkSpec spec_;
  Rng rng_;
  FailureSchedule failures_;
  Duration extra_latency_ = Duration::zero();
};

/// Registry of links between named endpoints (symmetric by default).
class Network {
public:
  explicit Network(Rng rng) : rng_{std::move(rng)} {}

  /// Creates (or replaces) the link between two endpoints, both directions.
  Link& add_link(const std::string& a, const std::string& b, LinkSpec spec);

  /// Returns the link between two endpoints, or the default local link for
  /// unknown pairs (components on the same machine).
  [[nodiscard]] Link& link(const std::string& a, const std::string& b);

  [[nodiscard]] bool has_link(const std::string& a, const std::string& b) const;

  /// Bumped by every add_link, which may replace the link a pair resolves
  /// to: a caller that caches Link pointers re-resolves when it changes.
  [[nodiscard]] std::uint64_t version() const { return version_; }

private:
  [[nodiscard]] static std::pair<std::string, std::string> key(
      const std::string& a, const std::string& b);

  Rng rng_;
  std::map<std::pair<std::string, std::string>, std::unique_ptr<Link>> links_;
  std::unique_ptr<Link> default_link_;
  std::uint64_t version_ = 0;
};

}  // namespace cg::sim
