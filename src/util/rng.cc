#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace inband {

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
  INBAND_ASSERT(lo <= hi);
  const std::uint64_t span = hi - lo;
  if (span == ~0ULL) return (*this)();
  const std::uint64_t n = span + 1;
  // Lemire's nearly-divisionless unbiased bounded sampling.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t t = (0 - n) % n;
    while (low < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::uint64_t>(m >> 64);
}

double Rng::exponential(double mean) {
  INBAND_ASSERT(mean > 0.0);
  double u;
  do {
    u = uniform_double();
  } while (u == 0.0);
  return -mean * std::log(u);
}

double Rng::normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1;
  do {
    u1 = uniform_double();
  } while (u1 == 0.0);
  const double u2 = uniform_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_normal_ = true;
  return r * std::cos(theta);
}

double Rng::lognormal_median(double median, double sigma) {
  INBAND_ASSERT(median > 0.0);
  INBAND_ASSERT(sigma >= 0.0);
  return median * std::exp(sigma * normal());
}

double Rng::pareto(double x_m, double alpha) {
  INBAND_ASSERT(x_m > 0.0);
  INBAND_ASSERT(alpha > 0.0);
  double u;
  do {
    u = uniform_double();
  } while (u == 0.0);
  return x_m / std::pow(u, 1.0 / alpha);
}

}  // namespace inband
