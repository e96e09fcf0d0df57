// Monte-Carlo option pricing — the Maxeler-class financial workload the
// paper cites ([18]: "Multi-level Customisation Framework for Curve Based
// Monte Carlo Financial Simulations").
#pragma once

#include <cstdint>
#include <cstddef>

namespace ecoscale::apps {

struct OptionParams {
  double spot = 100.0;      // S0
  double strike = 100.0;    // K
  double rate = 0.05;       // r
  double volatility = 0.2;  // sigma
  double maturity = 1.0;    // T (years)
};

struct McResult {
  double price = 0.0;
  double std_error = 0.0;
  std::size_t paths = 0;
};

/// Price a European call by GBM terminal-value sampling.
McResult price_european_call(const OptionParams& params, std::size_t paths,
                             std::uint64_t seed);

/// Closed-form Black–Scholes price (validation reference).
double black_scholes_call(const OptionParams& params);

}  // namespace ecoscale::apps
