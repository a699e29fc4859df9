#include "alloc.hpp"

#include "alloc_shim.hpp"

namespace perfbench {

std::uint64_t allocations() { return netrs::benchshim::alloc_count(); }

}  // namespace perfbench
