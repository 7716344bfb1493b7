// Process-wide heap allocation count, from a counting replacement of the
// global operator new linked into the benchmark binary (the technique the
// sim_scale bench uses).
#pragma once

#include <cstdint>

namespace gridbench {

[[nodiscard]] std::uint64_t allocation_count();

}  // namespace gridbench
