// GoAhead-style floorplanning of partial modules onto the fabric slot grid.
//
// The reconfigurable block of a Worker is a grid of width × height slots
// (a slot ≈ one resource column segment). Modules occupy rectangular
// bounding boxes. The floorplanner places boxes (first-fit over a
// deterministic scan order), tracks fragmentation, and supports
// defragmentation by repacking live modules — the middleware's
// "defragmenting the reconfigurable resources" role (paper §4.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ecoscale {

struct ModuleShape {
  std::size_t width = 1;   // slots
  std::size_t height = 1;  // slots
  std::size_t slots() const { return width * height; }
};

struct Placement {
  std::size_t x = 0;
  std::size_t y = 0;
  ModuleShape shape;
};

using RegionId = std::uint32_t;

class Floorplan {
 public:
  Floorplan(std::size_t width, std::size_t height);

  std::size_t width() const { return width_; }
  std::size_t height() const { return height_; }
  std::size_t total_slots() const { return width_ * height_; }
  std::size_t used_slots() const { return used_slots_; }
  std::size_t free_slots() const { return total_slots() - used_slots_; }

  /// Place a module; returns its region id, or nullopt if no rectangle of
  /// the required shape is free (possibly due to fragmentation).
  std::optional<RegionId> place(const ModuleShape& shape);

  void remove(RegionId region);

  bool is_live(RegionId region) const;
  const Placement& placement(RegionId region) const;

  /// Could `shape` be placed right now?
  bool can_place(const ModuleShape& shape) const;

  /// External fragmentation: 1 - (largest free rectangle / free slots).
  /// 0 when the free space is one solid rectangle (or fabric is full).
  double fragmentation() const;

  std::size_t largest_free_rectangle() const;

  /// Repack all live modules into a bottom-left-justified layout.
  /// Returns the number of modules that moved (each move costs a module
  /// relocation: readback + rewrite, charged by the ReconfigManager).
  std::size_t defragment();

 private:
  bool fits_at(std::size_t x, std::size_t y, const ModuleShape& s) const;
  void mark(const Placement& p, bool occupied);
  std::optional<std::pair<std::size_t, std::size_t>> find_spot(
      const ModuleShape& s) const;

  std::size_t width_;
  std::size_t height_;
  std::vector<bool> occupied_;  // width_ * height_
  std::size_t used_slots_ = 0;
  std::vector<std::optional<Placement>> regions_;
};

}  // namespace ecoscale
