#include "stats/special_functions.h"

#include <cassert>

#include "common/rng.h"

namespace exsample {
namespace stats {

double RegularizedGammaP(double a, double x) {
  return common::RegularizedGammaP(a, x);
}

double RegularizedGammaQ(double a, double x) {
  return common::RegularizedGammaQ(a, x);
}

double InverseRegularizedGammaP(double a, double p) {
  assert(a > 0.0);
  assert(p >= 0.0 && p < 1.0);
  if (p == 0.0) return 0.0;
  return common::GammaQuantile(a, common::LogGamma(a), {p, 1.0 - p});
}

}  // namespace stats
}  // namespace exsample
