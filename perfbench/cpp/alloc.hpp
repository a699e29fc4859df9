// Heap-allocation counter of the benchmark binary (bench/alloc_shim.hpp,
// compiled into alloc.cpp, the one translation unit that may include it).
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made process-wide since start (monotonic).
[[nodiscard]] std::uint64_t allocations();

}  // namespace perfbench
