/// The temporal fits abandon a candidate's residual sum once it reaches
/// the best residual so far, and precompute the grids and |dt|^α rows.
/// These tests keep the unpruned grid search (every residual summed in
/// full through `half_norm_residual`, every grid point recomputed) as an
/// oracle and require every fitted double to be bit-identical, on random
/// series and on series with NaN fractions.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/prng.hpp"
#include "stats/norms.hpp"
#include "stats/temporal.hpp"

namespace obscorr::stats {
namespace {

template <typename Model>
double full_residual(const TemporalSeries& s, const Model& m, double amp) {
  std::vector<double> predicted(s.dt.size());
  for (std::size_t i = 0; i < s.dt.size(); ++i) predicted[i] = amp * m.value(s.dt[i]);
  return half_norm_residual(predicted, s.fraction);
}

double oracle_peak(const TemporalSeries& s) {
  double best_abs = std::abs(s.dt[0]);
  double amp = s.fraction[0];
  for (std::size_t i = 1; i < s.dt.size(); ++i) {
    if (std::abs(s.dt[i]) < best_abs) {
      best_abs = std::abs(s.dt[i]);
      amp = s.fraction[i];
    }
  }
  return amp;
}

template <typename Model>
void consider(TemporalFit<Model>& fit, const TemporalSeries& s, const Model& m, bool* improved) {
  const double r = full_residual(s, m, fit.amplitude);
  if (r < fit.residual) {
    fit.residual = r;
    fit.model = m;
    if (improved != nullptr) *improved = true;
  }
}

TemporalFit<ModifiedCauchy> oracle_modified_cauchy(const TemporalSeries& s) {
  TemporalFit<ModifiedCauchy> fit;
  fit.amplitude = oracle_peak(s);
  fit.residual = std::numeric_limits<double>::infinity();
  for (double alpha = 0.05; alpha <= 4.0; alpha += 0.05) {
    for (double lb = std::log(0.02); lb <= std::log(100.0); lb += 0.1) {
      consider(fit, s, ModifiedCauchy{alpha, std::exp(lb)}, nullptr);
    }
  }
  double alpha_step = 0.05;
  double beta_factor = 1.1;
  for (int iter = 0; iter < 80; ++iter) {
    bool improved = false;
    for (const double a : {fit.model.alpha - alpha_step, fit.model.alpha + alpha_step}) {
      if (a <= 0.01) continue;
      consider(fit, s, ModifiedCauchy{a, fit.model.beta}, &improved);
    }
    for (const double b : {fit.model.beta / beta_factor, fit.model.beta * beta_factor}) {
      consider(fit, s, ModifiedCauchy{fit.model.alpha, b}, &improved);
    }
    if (!improved) {
      alpha_step *= 0.5;
      beta_factor = 1.0 + (beta_factor - 1.0) * 0.5;
      if (alpha_step < 1e-4 && beta_factor - 1.0 < 1e-4) break;
    }
  }
  return fit;
}

TemporalFit<FlooredModifiedCauchy> oracle_floored(const TemporalSeries& s) {
  TemporalFit<FlooredModifiedCauchy> fit;
  fit.amplitude = oracle_peak(s);
  fit.residual = std::numeric_limits<double>::infinity();
  for (double alpha = 0.1; alpha <= 3.0; alpha += 0.1) {
    for (double lb = std::log(0.05); lb <= std::log(50.0); lb += 0.2) {
      for (double floor = 0.0; floor < 0.9; floor += 0.05) {
        consider(fit, s, FlooredModifiedCauchy{alpha, std::exp(lb), floor}, nullptr);
      }
    }
  }
  double alpha_step = 0.1;
  double beta_factor = 1.2;
  double floor_step = 0.05;
  for (int iter = 0; iter < 100; ++iter) {
    bool improved = false;
    const auto step = [&](const FlooredModifiedCauchy& m) {
      if (m.alpha <= 0.01 || m.beta <= 0.0 || m.floor < 0.0 || m.floor >= 0.95) return;
      consider(fit, s, m, &improved);
    };
    step({fit.model.alpha - alpha_step, fit.model.beta, fit.model.floor});
    step({fit.model.alpha + alpha_step, fit.model.beta, fit.model.floor});
    step({fit.model.alpha, fit.model.beta / beta_factor, fit.model.floor});
    step({fit.model.alpha, fit.model.beta * beta_factor, fit.model.floor});
    step({fit.model.alpha, fit.model.beta, fit.model.floor - floor_step});
    step({fit.model.alpha, fit.model.beta, fit.model.floor + floor_step});
    if (!improved) {
      alpha_step *= 0.5;
      beta_factor = 1.0 + (beta_factor - 1.0) * 0.5;
      floor_step *= 0.5;
      if (alpha_step < 1e-4 && floor_step < 1e-4) break;
    }
  }
  return fit;
}

template <typename Model>
TemporalFit<Model> oracle_one_parameter(const TemporalSeries& s) {
  TemporalFit<Model> fit;
  fit.amplitude = oracle_peak(s);
  fit.residual = std::numeric_limits<double>::infinity();
  for (double lg = std::log(0.05); lg <= std::log(50.0); lg += 0.02) {
    consider(fit, s, Model{std::exp(lg)}, nullptr);
  }
  return fit;
}

bool same(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// A paper-shaped series: 15 months around the snapshot month, a decaying
/// beam over a floor plus noise; `nan_every` > 0 poisons every n-th point.
TemporalSeries random_series(Rng& rng, int nan_every) {
  TemporalSeries s;
  const int peak = static_cast<int>(rng.uniform_u64(15));
  const double alpha = 0.3 + 2.5 * rng.uniform();
  const double beta = 0.1 + 5.0 * rng.uniform();
  const double floor = 0.3 * rng.uniform();
  for (int m = 0; m < 15; ++m) {
    const double dt = static_cast<double>(m - peak);
    const double f = (1.0 - floor) * beta / (beta + std::pow(std::abs(dt), alpha)) + floor;
    s.dt.push_back(dt);
    s.fraction.push_back(std::max(0.0, f * (0.8 + 0.4 * rng.uniform())));
    if (nan_every > 0 && m % nan_every == nan_every - 1) s.fraction.back() = std::nan("");
  }
  return s;
}

void expect_fits_match(const TemporalSeries& s) {
  const auto mc = fit_modified_cauchy(s);
  const auto mc_want = oracle_modified_cauchy(s);
  EXPECT_TRUE(same(mc.model.alpha, mc_want.model.alpha));
  EXPECT_TRUE(same(mc.model.beta, mc_want.model.beta));
  EXPECT_TRUE(same(mc.amplitude, mc_want.amplitude));
  EXPECT_TRUE(same(mc.residual, mc_want.residual));

  const auto fl = fit_floored_modified_cauchy(s);
  const auto fl_want = oracle_floored(s);
  EXPECT_TRUE(same(fl.model.alpha, fl_want.model.alpha));
  EXPECT_TRUE(same(fl.model.beta, fl_want.model.beta));
  EXPECT_TRUE(same(fl.model.floor, fl_want.model.floor));
  EXPECT_TRUE(same(fl.residual, fl_want.residual));

  const auto c = fit_cauchy(s);
  const auto c_want = oracle_one_parameter<Cauchy>(s);
  EXPECT_TRUE(same(c.model.gamma, c_want.model.gamma));
  EXPECT_TRUE(same(c.residual, c_want.residual));

  const auto g = fit_gaussian(s);
  const auto g_want = oracle_one_parameter<Gaussian>(s);
  EXPECT_TRUE(same(g.model.sigma, g_want.model.sigma));
  EXPECT_TRUE(same(g.residual, g_want.residual));
}

TEST(TemporalPruneTest, RandomSeriesFitBitIdenticalToFullResidualSearch) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    expect_fits_match(random_series(rng, 0));
  }
}

TEST(TemporalPruneTest, NaNFractionsBehaveAsTheFullSearch) {
  Rng rng(7);
  for (const int nan_every : {1, 2, 5, 15}) {
    SCOPED_TRACE(nan_every);
    expect_fits_match(random_series(rng, nan_every));
  }
  // All-NaN (an empty bin's 0/0 fractions): no candidate ever wins.
  TemporalSeries empty;
  for (int m = 0; m < 15; ++m) {
    empty.dt.push_back(m - 4.0);
    empty.fraction.push_back(std::nan(""));
  }
  expect_fits_match(empty);
  EXPECT_TRUE(std::isinf(fit_modified_cauchy(empty).residual));
}

TEST(TemporalPruneTest, ExactFitsAndShortSeries) {
  // A series the grid reproduces exactly (residual 0 ends every later sum
  // at its first term) and the 3-point minimum.
  TemporalSeries exact;
  for (int m = -3; m <= 3; ++m) {
    exact.dt.push_back(m);
    exact.fraction.push_back(ModifiedCauchy{1.0, 1.0}.value(m));
  }
  expect_fits_match(exact);
  expect_fits_match(TemporalSeries{{-1.0, 0.0, 1.0}, {0.2, 0.9, 0.4}});
}

}  // namespace
}  // namespace obscorr::stats
