#include "fabric/floorplan.h"

#include <algorithm>

namespace ecoscale {

Floorplan::Floorplan(std::size_t width, std::size_t height)
    : width_(width), height_(height), occupied_(width * height, false) {
  ECO_CHECK(width_ > 0 && height_ > 0);
}

bool Floorplan::fits_at(std::size_t x, std::size_t y,
                        const ModuleShape& s) const {
  if (x + s.width > width_ || y + s.height > height_) return false;
  for (std::size_t dy = 0; dy < s.height; ++dy) {
    for (std::size_t dx = 0; dx < s.width; ++dx) {
      if (occupied_[(y + dy) * width_ + (x + dx)]) return false;
    }
  }
  return true;
}

void Floorplan::mark(const Placement& p, bool occupied) {
  for (std::size_t dy = 0; dy < p.shape.height; ++dy) {
    for (std::size_t dx = 0; dx < p.shape.width; ++dx) {
      occupied_[(p.y + dy) * width_ + (p.x + dx)] = occupied;
    }
  }
}

std::optional<std::pair<std::size_t, std::size_t>> Floorplan::find_spot(
    const ModuleShape& s) const {
  // Bottom-left first-fit scan: deterministic and keeps packing compact.
  for (std::size_t y = 0; y < height_; ++y) {
    for (std::size_t x = 0; x < width_; ++x) {
      if (fits_at(x, y, s)) return std::make_pair(x, y);
    }
  }
  return std::nullopt;
}

std::optional<RegionId> Floorplan::place(const ModuleShape& shape) {
  ECO_CHECK(shape.width > 0 && shape.height > 0);
  const auto spot = find_spot(shape);
  if (!spot) return std::nullopt;
  Placement p{spot->first, spot->second, shape};
  mark(p, true);
  used_slots_ += shape.slots();
  // Reuse a dead region slot if one exists.
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (!regions_[i]) {
      regions_[i] = p;
      return static_cast<RegionId>(i);
    }
  }
  regions_.push_back(p);
  return static_cast<RegionId>(regions_.size() - 1);
}

void Floorplan::remove(RegionId region) {
  ECO_CHECK_MSG(is_live(region), "removing a region that is not live");
  mark(*regions_[region], false);
  used_slots_ -= regions_[region]->shape.slots();
  regions_[region].reset();
}

bool Floorplan::is_live(RegionId region) const {
  return region < regions_.size() && regions_[region].has_value();
}

const Placement& Floorplan::placement(RegionId region) const {
  ECO_CHECK(is_live(region));
  return *regions_[region];
}

bool Floorplan::can_place(const ModuleShape& shape) const {
  return find_spot(shape).has_value();
}

std::size_t Floorplan::largest_free_rectangle() const {
  // Classic largest-rectangle-in-histogram sweep over rows.
  std::vector<std::size_t> heights(width_, 0);
  std::size_t best = 0;
  for (std::size_t y = 0; y < height_; ++y) {
    for (std::size_t x = 0; x < width_; ++x) {
      heights[x] = occupied_[y * width_ + x] ? 0 : heights[x] + 1;
    }
    // Stack-based max rectangle for this histogram row.
    std::vector<std::size_t> stack;
    for (std::size_t x = 0; x <= width_; ++x) {
      const std::size_t h = x < width_ ? heights[x] : 0;
      std::size_t start = x;
      while (!stack.empty() && heights[stack.back()] > h) {
        const std::size_t top = stack.back();
        stack.pop_back();
        const std::size_t left = stack.empty() ? 0 : stack.back() + 1;
        best = std::max(best, heights[top] * (x - left));
        start = left;
      }
      (void)start;
      if (x < width_) stack.push_back(x);
    }
  }
  return best;
}

double Floorplan::fragmentation() const {
  const std::size_t free = free_slots();
  if (free == 0) return 0.0;
  return 1.0 - static_cast<double>(largest_free_rectangle()) /
                   static_cast<double>(free);
}

std::size_t Floorplan::defragment() {
  // Collect live placements, clear the grid, re-place largest-first
  // bottom-left. Region ids are preserved.
  struct Entry {
    RegionId id;
    Placement p;
  };
  std::vector<Entry> live;
  for (std::size_t i = 0; i < regions_.size(); ++i) {
    if (regions_[i]) {
      live.push_back(Entry{static_cast<RegionId>(i), *regions_[i]});
      mark(*regions_[i], false);
    }
  }
  used_slots_ = 0;
  std::stable_sort(live.begin(), live.end(), [](const Entry& a, const Entry& b) {
    return a.p.shape.slots() > b.p.shape.slots();
  });
  std::size_t moved = 0;
  for (auto& e : live) {
    const auto spot = find_spot(e.p.shape);
    ECO_CHECK_MSG(spot.has_value(), "defragment failed to re-place module");
    Placement np{spot->first, spot->second, e.p.shape};
    if (np.x != e.p.x || np.y != e.p.y) ++moved;
    mark(np, true);
    used_slots_ += np.shape.slots();
    regions_[e.id] = np;
  }
  return moved;
}

}  // namespace ecoscale
