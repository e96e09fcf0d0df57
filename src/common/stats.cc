#include "common/stats.h"

#include <algorithm>

#include "common/check.h"

namespace ecoscale {

double Samples::percentile(double p) const {
  ECO_CHECK_MSG(!values_.empty(), "percentile of empty sample set");
  ECO_CHECK(p >= 0.0 && p <= 100.0);
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  if (values_.size() == 1) return values_.front();
  // Linear interpolation between closest ranks.
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double s = 0.0;
  for (double v : values_) s += v;
  return s / static_cast<double>(values_.size());
}

}  // namespace ecoscale
