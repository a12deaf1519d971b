#pragma once
/// \file temporal.hpp
/// Temporal correlation models (paper §III): Gaussian, Cauchy, and the
/// *modified Cauchy* distribution
///
///     f(t) ∝ β / (β + |t − t0|^α),   α > 0, β > 0,
///
/// which reduces to the standard Cauchy at α = 2, β = γ². All fits follow
/// the paper's procedure: generate model curves over a parameter grid,
/// normalize to the observed peak, and select parameters minimizing the
/// | |^{1/2} norm. The derived quantity 1/(β+1) is the relative one-month
/// drop from the peak (Fig. 8).
///
/// The searches stop summing a candidate's residual once the partial sum
/// reaches the best residual so far (the terms are >= 0, so such a
/// candidate can never win the strict `r < best` test) and walk
/// precomputed parameter grids; every fitted double is bit-identical to
/// the exhaustive search.

#include <span>
#include <vector>

namespace obscorr::stats {

/// Modified Cauchy parameters.
struct ModifiedCauchy {
  double alpha = 1.0;  ///< tail exponent
  double beta = 1.0;   ///< scale factor

  /// Unnormalized value at month offset dt = t − t0.
  double value(double dt) const;

  /// Relative drop from the peak after one month: 1/(β+1).
  double one_month_drop() const { return 1.0 / (beta + 1.0); }
};

/// Standard Cauchy with half-width γ, as a special case comparator.
struct Cauchy {
  double gamma = 1.0;
  double value(double dt) const;
};

/// Gaussian with standard deviation σ, as a comparator.
struct Gaussian {
  double sigma = 1.0;
  double value(double dt) const;
};

/// A fitted temporal model: parameters + peak amplitude + residual.
template <typename Model>
struct TemporalFit {
  Model model{};
  double amplitude = 0.0;  ///< peak normalization A (model prediction = A·f)
  double residual = 0.0;   ///< | |^{1/2} residual at the optimum
};

/// Observations: fraction seen at month offsets `dt` (dt may be negative;
/// dt = 0 is the coeval month whose value sets the peak normalization).
struct TemporalSeries {
  std::vector<double> dt;
  std::vector<double> fraction;
};

/// Fit the modified Cauchy by grid search over α ∈ [0.05, 4] and β on a
/// log grid ∈ [0.02, 100], refined by coordinate descent.
TemporalFit<ModifiedCauchy> fit_modified_cauchy(const TemporalSeries& series);

/// Extension beyond the paper: modified Cauchy plus a stationary
/// background floor,
///
///     f(t) = (1 − c)·β/(β+|t−t0|^α) + c,
///
/// matching the generative picture of a drifting beam over a re-activating
/// background. The paper fits the pure two-parameter form, which absorbs
/// the floor by deflating α; modelling the floor explicitly recovers the
/// beam's intrinsic exponent (≈1 under Beta persistence).
struct FlooredModifiedCauchy {
  double alpha = 1.0;
  double beta = 1.0;
  double floor = 0.0;  ///< background level c in [0, 1)

  double value(double dt) const;
  double one_month_drop() const;  ///< 1 - f(1)/f(0)
};

/// Fit (α, β, c) by nested grid + coordinate refinement under the
/// | |^{1/2} norm, amplitude pinned to the observed peak.
TemporalFit<FlooredModifiedCauchy> fit_floored_modified_cauchy(const TemporalSeries& series);

/// Fit the standard Cauchy (γ grid + refinement).
TemporalFit<Cauchy> fit_cauchy(const TemporalSeries& series);

/// Fit the Gaussian (σ grid + refinement).
TemporalFit<Gaussian> fit_gaussian(const TemporalSeries& series);

}  // namespace obscorr::stats
