// Input-dependent execution-time / energy predictors (paper §4.2 and
// Figure 5's "Execution History" block).
//
// For every (kernel, device-class) pair the runtime keeps a regression
// model over input features. The training part happens online: each
// completed task contributes one observation, which the models fold in
// and do not keep, so the history costs O(models), not O(tasks); the
// actuation part is the scheduler's predict() call.
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "common/units.h"
#include "hls/ir.h"
#include "model/regression.h"

namespace ecoscale {

enum class DeviceClass : std::uint8_t { kCpu = 0, kLocalFabric = 1,
                                        kRemoteFabric = 2 };

const char* device_class_name(DeviceClass d);

/// Task input descriptor — the "static and dynamic properties of the
/// input" the models correlate with cost.
struct TaskFeatures {
  double items = 0;        // input size (work items)
  double bytes = 0;        // input + output footprint
  double reuse = 1.0;      // access-pattern locality proxy (1 = streaming)
  double branchiness = 0;  // data-dependent control (hurts HW)

  static constexpr std::size_t kDims = 5;
  std::array<double, kDims> vector() const {
    return {1.0, items, bytes, items * reuse, branchiness * items};
  }
};

struct HistoryRecord {
  KernelId kernel = 0;
  DeviceClass device = DeviceClass::kCpu;
  TaskFeatures features;
  double time_ns = 0;
  double energy_pj = 0;
};

struct Prediction {
  double time_ns = 0;
  double energy_pj = 0;
  bool from_model = false;  // false = static fallback estimate
};

class CostPredictor {
 public:
  CostPredictor() = default;

  /// Record a completed execution (training part).
  void observe(const HistoryRecord& record);

  /// Predict cost of running `kernel` with `features` on `device`.
  /// Falls back to an analytic estimate derived from the KernelIR until the
  /// model has enough observations.
  Prediction predict(const KernelIR& kernel, DeviceClass device,
                     const TaskFeatures& features) const;

  std::size_t observations(KernelId kernel, DeviceClass device) const;

 private:
  struct Models {
    RidgeRegression time{TaskFeatures::kDims};
    RidgeRegression energy{TaskFeatures::kDims};
  };
  using ModelKey = std::pair<KernelId, DeviceClass>;

  static Prediction static_estimate(const KernelIR& kernel,
                                    DeviceClass device,
                                    const TaskFeatures& features);

  std::map<ModelKey, Models> models_;
};

}  // namespace ecoscale
