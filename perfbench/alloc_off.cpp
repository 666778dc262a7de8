#include "alloc.hpp"

namespace perfbench {

bool counts_allocations() { return false; }
std::uint64_t allocations() { return 0; }
void count_allocations(bool) {}

}  // namespace perfbench
