// Small helpers shared by the benchmark's translation units: host clock,
// FNV-1a digests, and order statistics over plain sample vectors.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace gridbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view data,
                                         std::uint64_t h = kFnvOffset) {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Folds a 64-bit value into a running FNV-1a digest, byte by byte.
[[nodiscard]] inline std::uint64_t fnv1a_u64(std::uint64_t value,
                                             std::uint64_t h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xffU;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

}  // namespace gridbench
