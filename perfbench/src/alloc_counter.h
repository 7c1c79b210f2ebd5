// Exact heap-allocation counting for the benchmark binary: the global
// operator new is replaced, and every successful allocation on any thread
// bumps one relaxed atomic counter.
#pragma once

#include <cstdint>

namespace perfbench {

/// Allocations made through operator new since the process started.
uint64_t AllocCount();

}  // namespace perfbench
