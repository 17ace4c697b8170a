// Per-thread heap-allocation counter for the traced runs.
//
// Linking alloc_hook.cpp replaces the global operator new/delete with
// versions that bump a thread-local counter on top of malloc. The counter is
// per thread so that a span opened on one exp-pool worker never sees
// another worker's allocations: the *.allocs_per_* metrics then repeat
// exactly from run to run, whatever the pool's schedule.
#pragma once

#include <cstdint>

namespace perfbench {

// operator-new calls made by the calling thread since it started.
std::uint64_t thread_allocations() noexcept;

}  // namespace perfbench
