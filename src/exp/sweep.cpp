#include "exp/sweep.hpp"

#include <limits>
#include <utility>

#include "util/contracts.hpp"

namespace pds {

SweepGrid::SweepGrid(std::vector<std::size_t> extents)
    : extents_(std::move(extents)) {
  PDS_CHECK(!extents_.empty(), "sweep grid needs at least one axis");
  for (const std::size_t e : extents_) {
    PDS_CHECK(e > 0, "sweep axis extent must be positive");
    PDS_CHECK(size_ <= std::numeric_limits<std::size_t>::max() / e,
              "sweep grid size overflows");
    size_ *= e;
  }
}

std::vector<std::size_t> SweepGrid::coords(std::size_t flat) const {
  PDS_REQUIRE(flat < size_);
  std::vector<std::size_t> at(extents_.size());
  for (std::size_t axis = extents_.size(); axis-- > 0;) {
    at[axis] = flat % extents_[axis];
    flat /= extents_[axis];
  }
  return at;
}

std::size_t SweepGrid::flat(const std::vector<std::size_t>& coords) const {
  PDS_REQUIRE(coords.size() == extents_.size());
  std::size_t flat = 0;
  for (std::size_t axis = 0; axis < extents_.size(); ++axis) {
    PDS_REQUIRE(coords[axis] < extents_[axis]);
    flat = flat * extents_[axis] + coords[axis];
  }
  return flat;
}

}  // namespace pds
