// Sweep-cell fan-out over a cartesian experiment grid.
//
// The evaluation benches enumerate grids like rho x scheduler x seed and
// run one independent simulation per cell. SweepGrid names the index space
// (row-major, last axis fastest), and run_sweep executes one cell per
// parallel_for index on the global ThreadPool, writing each result into its
// grid slot; a bench keeps its SweepGrid to look results up after the
// barrier (cells[grid.flat({r, k})]). Because results are stored by flat
// index and cells are seeded independently, the returned vector — and any
// table assembled from it after the barrier — is byte-identical whether the
// pool has 1 or N workers (the determinism contract; pinned by
// tests/exp_test.cpp).
//
// Granularity rule (see docs/architecture.md): fan out at *cell*
// granularity — one run_sweep over every (parameter, scheduler, seed)
// combination a table needs — and keep any nested per-cell parallelism
// (e.g. run_study_a_replications inside a cell) as it is; nested
// parallel_for runs inline, so composing the two is safe and the outer,
// wider fan-out wins the hardware.
#pragma once

#include <cstddef>
#include <vector>

#include "exp/thread_pool.hpp"

namespace pds {

// A cartesian index space. coords/flat convert between the flat cell index
// and per-axis coordinates; axis 0 is the slowest (outermost loop).
class SweepGrid {
 public:
  explicit SweepGrid(std::vector<std::size_t> extents);

  std::size_t size() const { return size_; }
  std::size_t rank() const { return extents_.size(); }
  const std::vector<std::size_t>& extents() const { return extents_; }

  std::vector<std::size_t> coords(std::size_t flat) const;
  std::size_t flat(const std::vector<std::size_t>& coords) const;

 private:
  std::vector<std::size_t> extents_;
  std::size_t size_ = 1;
};

// Runs fn(flat_index) for every cell in [0, cells) on the global pool and
// returns the results in grid order. The result type must be
// default-constructible (results are written into a pre-sized vector).
template <typename Fn>
auto run_sweep(std::size_t cells, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(cells);
  parallel_for(cells,
               [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

// Grid-shaped variant: fn(coords, flat_index) -> Result.
template <typename Fn>
auto run_sweep(const SweepGrid& grid, Fn&& fn)
    -> std::vector<decltype(fn(std::vector<std::size_t>{},
                               std::size_t{0}))> {
  std::vector<decltype(fn(std::vector<std::size_t>{}, std::size_t{0}))> out(
      grid.size());
  parallel_for(grid.size(), [&](std::size_t i) { out[i] = fn(grid.coords(i), i); });
  return out;
}

}  // namespace pds
