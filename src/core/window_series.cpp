#include "core/window_series.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "core/parallel_capture.hpp"
#include "netgen/traffic.hpp"
#include "stats/histogram.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {

WindowSeries intra_month_series(const netgen::Scenario& scenario, int month, int n_windows,
                                ThreadPool& pool) {
  OBSCORR_REQUIRE(n_windows >= 2, "intra_month_series: need at least two windows");
  const netgen::Population population(scenario.population);
  const netgen::TrafficGenerator generator(population, scenario.traffic);
  const telescope::TelescopeConfig cfg = telescope_config(scenario);

  // Windows are independent given the (read-only) population: run them
  // as pool tasks into pre-sized slots, each through its own telescope
  // instance (the per-window stats never read cross-window scope state).
  (void)population.active(0, month);  // warm the activity chain once
  WindowSeries series;
  series.windows.resize(static_cast<std::size_t>(n_windows));
  parallel_for(pool, 0, static_cast<std::size_t>(n_windows), [&](std::size_t b, std::size_t e) {
    for (std::size_t w = b; w < e; ++w) {
      telescope::Telescope scope(cfg, pool);
      WindowStats stats;
      stats.salt = 0x71000 + static_cast<std::uint64_t>(w);
      const gbl::DcsrMatrix matrix =
          capture_window(scope, generator, month, scenario.nv(), stats.salt, pool);
      stats.aggregates = gbl::aggregate_quantities(matrix);
      stats.zipf = stats::fit_zipf_mandelbrot(
          stats::LogHistogram::from_sparse_vec(matrix.reduce_rows()));
      series.windows[w] = std::move(stats);
    }
  });

  // Stability summaries.
  double mean_sources = 0.0;
  double alpha_lo = series.windows[0].zipf.model.alpha;
  double alpha_hi = alpha_lo;
  double dmax_lo = series.windows[0].aggregates.max_source_packets;
  double dmax_hi = dmax_lo;
  for (const WindowStats& w : series.windows) {
    mean_sources += static_cast<double>(w.aggregates.unique_sources);
    alpha_lo = std::min(alpha_lo, w.zipf.model.alpha);
    alpha_hi = std::max(alpha_hi, w.zipf.model.alpha);
    dmax_lo = std::min(dmax_lo, w.aggregates.max_source_packets);
    dmax_hi = std::max(dmax_hi, w.aggregates.max_source_packets);
  }
  mean_sources /= static_cast<double>(series.windows.size());
  double var = 0.0;
  for (const WindowStats& w : series.windows) {
    const double dev = static_cast<double>(w.aggregates.unique_sources) - mean_sources;
    var += dev * dev;
  }
  var /= static_cast<double>(series.windows.size());
  series.source_count_cv = mean_sources > 0.0 ? std::sqrt(var) / mean_sources : 0.0;
  series.alpha_spread = alpha_hi - alpha_lo;
  series.dmax_ratio = dmax_lo > 0.0 ? dmax_hi / dmax_lo : 0.0;
  return series;
}

}  // namespace obscorr::core
