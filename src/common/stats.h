// Sample sets with exact percentiles for experiment reporting.
#pragma once

#include <cstddef>
#include <vector>

namespace ecoscale {

/// Reservoir of samples with exact percentiles. For simulator-sized sample
/// counts (<= millions) exact storage is fine and avoids sketch error.
class Samples {
 public:
  void add(double x) { values_.push_back(x); sorted_ = false; }
  std::size_t count() const { return values_.size(); }
  double percentile(double p) const;  // p in [0, 100]
  double median() const { return percentile(50.0); }
  double mean() const;
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }
  void clear() { values_.clear(); sorted_ = false; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace ecoscale
