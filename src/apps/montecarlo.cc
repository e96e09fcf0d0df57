#include "apps/montecarlo.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace ecoscale::apps {

namespace {

double norm_cdf(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

}  // namespace

double black_scholes_call(const OptionParams& p) {
  const double d1 =
      (std::log(p.spot / p.strike) +
       (p.rate + 0.5 * p.volatility * p.volatility) * p.maturity) /
      (p.volatility * std::sqrt(p.maturity));
  const double d2 = d1 - p.volatility * std::sqrt(p.maturity);
  return p.spot * norm_cdf(d1) -
         p.strike * std::exp(-p.rate * p.maturity) * norm_cdf(d2);
}

McResult price_european_call(const OptionParams& p, std::size_t paths,
                             std::uint64_t seed) {
  ECO_CHECK(paths > 0);
  Rng rng(seed);
  const double drift =
      (p.rate - 0.5 * p.volatility * p.volatility) * p.maturity;
  const double diffusion = p.volatility * std::sqrt(p.maturity);
  const double discount = std::exp(-p.rate * p.maturity);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < paths; ++i) {
    const double z = rng.normal();
    const double terminal = p.spot * std::exp(drift + diffusion * z);
    const double payoff = discount * std::max(terminal - p.strike, 0.0);
    sum += payoff;
    sum_sq += payoff * payoff;
  }
  McResult r;
  r.paths = paths;
  r.price = sum / static_cast<double>(paths);
  const double var =
      (sum_sq - sum * sum / static_cast<double>(paths)) /
      static_cast<double>(paths > 1 ? paths - 1 : 1);
  r.std_error = std::sqrt(var / static_cast<double>(paths));
  return r;
}

}  // namespace ecoscale::apps
