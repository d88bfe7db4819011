#ifndef EXSAMPLE_STATS_SPECIAL_FUNCTIONS_H_
#define EXSAMPLE_STATS_SPECIAL_FUNCTIONS_H_

namespace exsample {
namespace stats {

/// \brief Regularized lower incomplete gamma function P(a, x).
///
/// P(a, x) = gamma(a, x) / Gamma(a), for a > 0 and x >= 0. This is the CDF of
/// a Gamma(shape=a, rate=1) random variable evaluated at x
/// (`common::RegularizedGammaP`).
double RegularizedGammaP(double a, double x);

/// \brief Regularized upper incomplete gamma function Q(a, x) = 1 - P(a, x).
double RegularizedGammaQ(double a, double x);

/// \brief Inverse of `RegularizedGammaP` in x: returns x such that
/// P(a, x) = p, for p in [0, 1). `common::GammaQuantile` with its upper tail
/// taken as 1 - p.
double InverseRegularizedGammaP(double a, double p);

}  // namespace stats
}  // namespace exsample

#endif  // EXSAMPLE_STATS_SPECIAL_FUNCTIONS_H_
