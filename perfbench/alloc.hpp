// Allocation counting for the traced binary.
//
// perfbench_traced links alloc_count.cpp, which replaces the global operator
// new with a counting forwarder to malloc; perfbench links alloc_off.cpp and
// keeps the standard allocator, so untraced measurements run the library's
// allocation path unchanged.
#pragma once

#include <cstdint>

namespace perfbench {

/// True in the traced binary, whose allocator counts.
bool counts_allocations();

/// Operator-new calls made while counting was switched on (always 0 in the
/// untraced binary).
std::uint64_t allocations();

/// Switches counting on or off (a no-op in the untraced binary).
void count_allocations(bool on);

}  // namespace perfbench
