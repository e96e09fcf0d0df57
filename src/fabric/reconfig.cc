#include "fabric/reconfig.h"

#include <algorithm>

#include "common/check.h"

namespace ecoscale {

namespace {
/// Reconfiguration span names, one per compression scheme so a Perfetto
/// query can split latency by wire format without parsing args, and the
/// energy category a load charges.
struct ReconfigTraceNames {
  CounterId by_compression[3] = {
      CounterRegistry::intern("fabric.reconfig.none"),
      CounterRegistry::intern("fabric.reconfig.rle"),
      CounterRegistry::intern("fabric.reconfig.lz"),
  };
  CounterId config_energy = CounterRegistry::intern("fabric.config");
};
[[maybe_unused]] const ReconfigTraceNames& reconfig_trace_names() {
  static const ReconfigTraceNames names;
  return names;
}
}  // namespace

ReconfigManager::ReconfigManager(std::string name, ReconfigConfig config)
    : name_(std::move(name)),
      config_(config),
      floorplan_(config.fabric_width, config.fabric_height),
      config_port_(name_ + ".icap") {}

Bytes ReconfigManager::wire_bytes_for(const AcceleratorModule& module) const {
  // Raw size depends on the region granularity...
  std::size_t region_slots = 0;
  switch (config_.bitstream_mode) {
    case BitstreamMode::kFullRegion:
      // Fixed islands: the bitstream always covers a full-height column
      // strip as wide as the module (classic island-style PR).
      region_slots = module.shape.width * config_.fabric_height;
      break;
    case BitstreamMode::kBoundingBox:
      region_slots = module.shape.slots();
      break;
  }
  const Bitstream raw =
      generate_bitstream(region_slots, module.logic_density,
                         0x5eedull ^ module.kernel);
  // ...and the wire size on the compression scheme.
  switch (config_.compression) {
    case CompressionMode::kNone:
      return raw.size();
    case CompressionMode::kRle:
      return compress_rle(raw).compressed_size;
    case CompressionMode::kLz:
      return compress_lz(raw).compressed_size;
  }
  return raw.size();
}

std::optional<RegionId> ReconfigManager::make_room(const ModuleShape& shape,
                                                   SimTime now,
                                                   LoadResult& result) {
  if (auto region = floorplan_.place(shape)) return region;
  // Evict idle (not busy at `now`) modules, least-recently-used first,
  // until the shape fits.
  for (;;) {
    const Loaded* lru = nullptr;
    for (const auto& [kernel, entry] : loaded_) {
      if (entry.busy_until > now) continue;
      if (lru == nullptr || entry.last_used < lru->last_used) lru = &entry;
    }
    if (lru == nullptr) break;  // everything is busy
    floorplan_.remove(lru->region);
    loaded_.erase(lru->kernel);
    ++evictions_;
    result.evicted_any = true;
    if (auto region = floorplan_.place(shape)) return region;
    // Enough free area but fragmented? Defragment once.
    if (config_.allow_defrag &&
        floorplan_.free_slots() >= shape.slots() &&
        !floorplan_.can_place(shape)) {
      // Only legal if nothing is mid-execution (module relocation needs
      // idle modules).
      bool any_busy = false;
      for (const auto& [kernel, entry] : loaded_) {
        if (entry.busy_until > now) {
          any_busy = true;
          break;
        }
      }
      if (!any_busy) {
        floorplan_.defragment();
        ++defrag_runs_;
        result.defragmented = true;
        if (auto region = floorplan_.place(shape)) return region;
      }
    }
  }
  return std::nullopt;
}

std::optional<LoadResult> ReconfigManager::ensure_loaded(
    const AcceleratorModule& module, SimTime now) {
  LoadResult result;
  if (auto it = loaded_.find(module.kernel); it != loaded_.end()) {
    it->second.last_used = now;
    result.region = it->second.region;
    result.ready = now;
    result.reconfigured = false;
    return result;
  }
  if (module.shape.width > floorplan_.width() ||
      module.shape.height > floorplan_.height()) {
    return std::nullopt;  // can never fit
  }
  const auto region = make_room(module.shape, now, result);
  if (!region) return std::nullopt;

  const Bytes wire = wire_bytes_for(module);
  const SimDuration transfer = config_.config_port_bw.transfer_time(wire);
  const SimTime start = config_port_.reserve(now, transfer);
  result.region = *region;
  result.ready = start + config_.setup_latency + transfer;
  result.reconfigured = true;
  result.config_bytes = wire;
  // Reconfiguration span: request to module-ready, wire bytes as the
  // attribute (bitstream size after compression).
  ECO_TRACE_SPAN(
      obs::Cat::kFabric,
      reconfig_trace_names()
          .by_compression[static_cast<std::size_t>(config_.compression)],
      trace_lane_, now, result.ready, wire);
  config_bytes_total_ += wire;
  ++loads_;
  energy_.charge(reconfig_trace_names().config_energy,
                 config_.pj_per_config_byte * static_cast<double>(wire));
  loaded_[module.kernel] =
      Loaded{module.kernel, *region, /*busy_until=*/result.ready,
             /*last_used=*/now};
  ++bitstream_seed_;
  return result;
}

void ReconfigManager::set_busy_until(RegionId region, SimTime t) {
  for (auto& [kernel, entry] : loaded_) {
    if (entry.region == region) {
      entry.busy_until = std::max(entry.busy_until, t);
      entry.last_used = t;
      return;
    }
  }
  ECO_CHECK_MSG(false, "set_busy_until on unknown region");
}

bool ReconfigManager::is_loaded(KernelId kernel) const {
  return loaded_.contains(kernel);
}

bool ReconfigManager::is_idle(KernelId kernel, SimTime now) const {
  auto it = loaded_.find(kernel);
  return it != loaded_.end() && it->second.busy_until <= now;
}

std::optional<RegionId> ReconfigManager::region_of(KernelId kernel) const {
  auto it = loaded_.find(kernel);
  if (it == loaded_.end()) return std::nullopt;
  return it->second.region;
}

void ReconfigManager::unload(KernelId kernel) {
  auto it = loaded_.find(kernel);
  ECO_CHECK_MSG(it != loaded_.end(), "unloading a kernel that is not loaded");
  floorplan_.remove(it->second.region);
  loaded_.erase(it);
}

}  // namespace ecoscale
