#include "model/predictor.h"

#include <algorithm>

namespace ecoscale {

const char* device_class_name(DeviceClass d) {
  switch (d) {
    case DeviceClass::kCpu: return "cpu";
    case DeviceClass::kLocalFabric: return "local_fabric";
    case DeviceClass::kRemoteFabric: return "remote_fabric";
  }
  return "?";
}

void CostPredictor::observe(const HistoryRecord& record) {
  auto& m = models_[{record.kernel, record.device}];
  const auto x = record.features.vector();
  m.time.observe(x, record.time_ns);
  m.energy.observe(x, record.energy_pj);
}

Prediction CostPredictor::static_estimate(const KernelIR& kernel,
                                          DeviceClass device,
                                          const TaskFeatures& features) {
  Prediction p;
  p.from_model = false;
  const double items = features.items;
  switch (device) {
    case DeviceClass::kCpu:
      p.time_ns = kernel.cpu_cycles_per_item * items / 1.2;  // 1.2 GHz
      p.energy_pj = 120.0 * kernel.cpu_cycles_per_item * items;
      break;
    case DeviceClass::kLocalFabric: {
      // Assume a pipelined II≈1 implementation at a 0.25 GHz fabric clock
      // plus a reconfiguration amortisation constant.
      p.time_ns = items * 4.0 + 50000.0;
      p.energy_pj = 3.0 * kernel.ops.total() * items;
      break;
    }
    case DeviceClass::kRemoteFabric:
      p.time_ns = items * 6.0 + 80000.0;  // uncached remote data path
      p.energy_pj = 3.0 * kernel.ops.total() * items +
                    6.0 * features.bytes;
      break;
  }
  return p;
}

Prediction CostPredictor::predict(const KernelIR& kernel, DeviceClass device,
                                  const TaskFeatures& features) const {
  auto it = models_.find({kernel.id, device});
  if (it != models_.end()) {
    const auto x = features.vector();
    const auto t = it->second.time.predict(x);
    const auto e = it->second.energy.predict(x);
    if (t && e) {
      Prediction p;
      // Costs are physically non-negative; clamp the linear model.
      p.time_ns = std::max(0.0, *t);
      p.energy_pj = std::max(0.0, *e);
      p.from_model = true;
      return p;
    }
  }
  return static_estimate(kernel, device, features);
}

std::size_t CostPredictor::observations(KernelId kernel,
                                        DeviceClass device) const {
  auto it = models_.find({kernel, device});
  return it == models_.end() ? 0 : it->second.time.observations();
}

}  // namespace ecoscale
