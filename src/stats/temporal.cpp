#include "stats/temporal.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace obscorr::stats {

double ModifiedCauchy::value(double dt) const {
  return beta / (beta + std::pow(std::abs(dt), alpha));
}

double Cauchy::value(double dt) const {
  return gamma * gamma / (gamma * gamma + dt * dt);
}

double Gaussian::value(double dt) const {
  return std::exp(-0.5 * (dt / sigma) * (dt / sigma));
}

namespace {

void validate(const TemporalSeries& series) {
  OBSCORR_REQUIRE(series.dt.size() == series.fraction.size(),
                  "temporal fit: dt/fraction size mismatch");
  OBSCORR_REQUIRE(series.dt.size() >= 3, "temporal fit: need at least 3 observations");
}

/// Peak amplitude: the observed value at the smallest |dt| (the paper
/// normalizes model curves "to the peak in the data").
double peak_amplitude(const TemporalSeries& series) {
  double best_abs = std::abs(series.dt[0]);
  double amp = series.fraction[0];
  for (std::size_t i = 1; i < series.dt.size(); ++i) {
    if (std::abs(series.dt[i]) < best_abs) {
      best_abs = std::abs(series.dt[i]);
      amp = series.fraction[i];
    }
  }
  return amp;
}

/// The | |^{1/2} residual Σ_i |amp·model_at(i) − y_i|^{1/2} (stats/norms.hpp,
/// same terms in the same order), abandoned once the partial sum reaches
/// `bound`. Every term is >= 0, so an abandoned candidate could never pass
/// the callers' strict `r < best` test: the chosen fit and its residual are
/// bit-identical to summing every term. A NaN term makes every later
/// comparison false, so a NaN residual still runs to the end and still loses.
template <typename ModelAt>
double residual_below(const TemporalSeries& series, double amplitude, double bound,
                      const ModelAt& model_at) {
  double total = 0.0;
  for (std::size_t i = 0; i < series.fraction.size(); ++i) {
    total += std::pow(std::abs(amplitude * model_at(i) - series.fraction[i]), 0.5);
    if (total >= bound) break;
  }
  return total;
}

template <typename Model>
double residual_below(const TemporalSeries& series, const Model& model, double amplitude,
                      double bound) {
  return residual_below(series, amplitude, bound,
                        [&](std::size_t i) { return model.value(series.dt[i]); });
}

/// The values of `x` visited by `for (x = lo; x <= hi; x += step)`, with the
/// loop's own accumulation, so a precomputed grid walks the same doubles.
std::vector<double> accumulated_grid(double lo, double hi, double step) {
  std::vector<double> grid;
  for (double x = lo; x <= hi; x += step) grid.push_back(x);
  return grid;
}

/// exp() of each point of a log-spaced grid.
std::vector<double> exp_grid(double log_lo, double log_hi, double step) {
  std::vector<double> grid = accumulated_grid(log_lo, log_hi, step);
  for (double& x : grid) x = std::exp(x);
  return grid;
}

}  // namespace

TemporalFit<ModifiedCauchy> fit_modified_cauchy(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);

  TemporalFit<ModifiedCauchy> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();

  // Coarse grid: α linear, β logarithmic (it is a scale parameter).
  // |dt|^α depends only on α, so it is computed once per α row.
  static const std::vector<double> kAlphas = accumulated_grid(0.05, 4.0, 0.05);
  static const std::vector<double> kBetas = exp_grid(std::log(0.02), std::log(100.0), 0.1);
  std::vector<double> dt_pow(series.dt.size());
  for (const double alpha : kAlphas) {
    for (std::size_t i = 0; i < dt_pow.size(); ++i) {
      dt_pow[i] = std::pow(std::abs(series.dt[i]), alpha);
    }
    for (const double beta : kBetas) {
      const double r = residual_below(series, amp, fit.residual,
                                      [&](std::size_t i) { return beta / (beta + dt_pow[i]); });
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = {alpha, beta};
      }
    }
  }

  // Coordinate refinement.
  double alpha_step = 0.05;
  double beta_factor = 1.1;
  for (int iter = 0; iter < 80; ++iter) {
    bool improved = false;
    for (const double a : {fit.model.alpha - alpha_step, fit.model.alpha + alpha_step}) {
      if (a <= 0.01) continue;
      const ModifiedCauchy m{a, fit.model.beta};
      const double r = residual_below(series, m, amp, fit.residual);
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
        improved = true;
      }
    }
    for (const double b : {fit.model.beta / beta_factor, fit.model.beta * beta_factor}) {
      const ModifiedCauchy m{fit.model.alpha, b};
      const double r = residual_below(series, m, amp, fit.residual);
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
        improved = true;
      }
    }
    if (!improved) {
      alpha_step *= 0.5;
      beta_factor = 1.0 + (beta_factor - 1.0) * 0.5;
      if (alpha_step < 1e-4 && beta_factor - 1.0 < 1e-4) break;
    }
  }
  return fit;
}

double FlooredModifiedCauchy::value(double dt) const {
  return (1.0 - floor) * beta / (beta + std::pow(std::abs(dt), alpha)) + floor;
}

double FlooredModifiedCauchy::one_month_drop() const {
  return 1.0 - value(1.0) / value(0.0);
}

TemporalFit<FlooredModifiedCauchy> fit_floored_modified_cauchy(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);

  TemporalFit<FlooredModifiedCauchy> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();

  static const std::vector<double> kAlphas = accumulated_grid(0.1, 3.0, 0.1);
  static const std::vector<double> kBetas = exp_grid(std::log(0.05), std::log(50.0), 0.2);
  std::vector<double> dt_pow(series.dt.size());
  for (const double alpha : kAlphas) {
    for (std::size_t i = 0; i < dt_pow.size(); ++i) {
      dt_pow[i] = std::pow(std::abs(series.dt[i]), alpha);
    }
    for (const double beta : kBetas) {
      for (double floor = 0.0; floor < 0.9; floor += 0.05) {
        const double r = residual_below(series, amp, fit.residual, [&](std::size_t i) {
          return (1.0 - floor) * beta / (beta + dt_pow[i]) + floor;
        });
        if (r < fit.residual) {
          fit.residual = r;
          fit.model = {alpha, beta, floor};
        }
      }
    }
  }

  double alpha_step = 0.1;
  double beta_factor = 1.2;
  double floor_step = 0.05;
  for (int iter = 0; iter < 100; ++iter) {
    bool improved = false;
    const auto consider = [&](const FlooredModifiedCauchy& m) {
      if (m.alpha <= 0.01 || m.beta <= 0.0 || m.floor < 0.0 || m.floor >= 0.95) return;
      const double r = residual_below(series, m, amp, fit.residual);
      if (r < fit.residual) {
        fit.residual = r;
        fit.model = m;
        improved = true;
      }
    };
    consider({fit.model.alpha - alpha_step, fit.model.beta, fit.model.floor});
    consider({fit.model.alpha + alpha_step, fit.model.beta, fit.model.floor});
    consider({fit.model.alpha, fit.model.beta / beta_factor, fit.model.floor});
    consider({fit.model.alpha, fit.model.beta * beta_factor, fit.model.floor});
    consider({fit.model.alpha, fit.model.beta, fit.model.floor - floor_step});
    consider({fit.model.alpha, fit.model.beta, fit.model.floor + floor_step});
    if (!improved) {
      alpha_step *= 0.5;
      beta_factor = 1.0 + (beta_factor - 1.0) * 0.5;
      floor_step *= 0.5;
      if (alpha_step < 1e-4 && floor_step < 1e-4) break;
    }
  }
  return fit;
}

TemporalFit<Cauchy> fit_cauchy(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);
  TemporalFit<Cauchy> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();
  static const std::vector<double> kGammas = exp_grid(std::log(0.05), std::log(50.0), 0.02);
  for (const double gamma : kGammas) {
    const Cauchy m{gamma};
    const double r = residual_below(series, m, amp, fit.residual);
    if (r < fit.residual) {
      fit.residual = r;
      fit.model = m;
    }
  }
  return fit;
}

TemporalFit<Gaussian> fit_gaussian(const TemporalSeries& series) {
  validate(series);
  const double amp = peak_amplitude(series);
  TemporalFit<Gaussian> fit;
  fit.amplitude = amp;
  fit.residual = std::numeric_limits<double>::infinity();
  static const std::vector<double> kSigmas = exp_grid(std::log(0.05), std::log(50.0), 0.02);
  for (const double sigma : kSigmas) {
    const Gaussian m{sigma};
    const double r = residual_below(series, m, amp, fit.residual);
    if (r < fit.residual) {
      fit.residual = r;
      fit.model = m;
    }
  }
  return fit;
}

}  // namespace obscorr::stats
