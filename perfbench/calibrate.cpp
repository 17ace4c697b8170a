#include "calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

double calibration_loop_s() {
  using Clock = std::chrono::steady_clock;
  constexpr std::uint32_t kEvents = 64;
  constexpr std::uint32_t kTableMask = 1023;
  constexpr int kSteps = 400000;

  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ULL;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto later = [](const std::pair<double, std::uint32_t>& a,
                        const std::pair<double, std::uint32_t>& b) {
    return a.first > b.first;
  };
  std::vector<std::pair<double, std::uint32_t>> heap;
  heap.reserve(kEvents);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    heap.emplace_back(static_cast<double>(next() % 1000) * 1e-3, i);
  }
  std::make_heap(heap.begin(), heap.end(), later);
  std::vector<std::uint32_t> table(kTableMask + 1, 0);
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const auto [t, id] = heap.back();
    heap.pop_back();
    table[(id * 2654435761u + static_cast<std::uint32_t>(i)) & kTableMask] += id;
    acc += table[next() & kTableMask];
    heap.emplace_back(t + static_cast<double>(next() % 1000) * 1e-3, id);
    std::push_heap(heap.begin(), heap.end(), later);
  }
  // Keeps the loop's result live so it is not optimised away.
  volatile std::uint64_t sink = acc;
  (void)sink;
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace perfbench
