#include "core/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string_view>

#include "common/binning.hpp"
#include "common/error.hpp"
#include "obs/span.hpp"

namespace obscorr::core {

std::vector<std::string> bin_sources(const SnapshotData& snapshot, int bin) {
  std::vector<std::string> keys;
  for (const d4m::Triple& t : snapshot.sources.to_triples()) {
    if (t.col != "packets") continue;
    if (t.val >= 1.0 && log2_bin(static_cast<std::uint64_t>(t.val)) == bin) {
      keys.push_back(t.row);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

namespace {

/// Brightness bin of each row of a snapshot's ip -> "packets" assoc, in
/// row-key order; -1 for a row with no "packets" entry or under 1 packet
/// (the rows `bin_sources` never returns).
std::vector<int> row_bins(const d4m::AssocArray& sources) {
  std::vector<int> bins(sources.row_keys().size(), -1);
  const auto cols = sources.col_keys();
  const auto it = std::lower_bound(cols.begin(), cols.end(), std::string_view("packets"));
  if (it == cols.end() || *it != "packets") return bins;
  const auto packets = static_cast<std::uint32_t>(it - cols.begin());
  const auto row_ptr = sources.row_ptr();
  const auto col_idx = sources.col_idx();
  const auto values = sources.values();
  for (std::size_t r = 0; r < bins.size(); ++r) {
    for (std::uint64_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      if (col_idx[k] == packets && values[k] >= 1.0) {
        bins[r] = log2_bin(static_cast<std::uint64_t>(values[k]));
      }
    }
  }
  return bins;
}

/// Call `hit(i)` for every key `a[i]` that `b` also holds. Both lists are
/// sorted and unique in the same (std::string) order, so one forward walk
/// suffices: from the last position it gallops through `b` in doubling
/// steps and binary-searches only the bracketed run, which costs
/// O(|a| log(|b|/|a|)) comparisons instead of a full binary search per key.
template <typename Hit>
void for_each_shared_key(std::span<const std::string> a, std::span<const std::string> b,
                         const Hit& hit) {
  std::size_t lo = 0;
  for (std::size_t i = 0; i < a.size() && lo < b.size(); ++i) {
    const std::string& key = a[i];
    std::size_t hi = lo;
    for (std::size_t step = 1; hi < b.size() && b[hi] < key; step *= 2) {
      lo = hi + 1;
      hi += step;
    }
    hi = std::min(hi, b.size());
    lo = static_cast<std::size_t>(std::lower_bound(b.begin() + static_cast<std::ptrdiff_t>(lo),
                                                   b.begin() + static_cast<std::ptrdiff_t>(hi),
                                                   key) -
                                  b.begin());
    if (lo < b.size() && b[lo] == key) {
      hit(i);
      ++lo;
    }
  }
}

/// The three model fits of one temporal curve.
void fit_curve(TemporalCorrelation& curve) {
  curve.modified_cauchy = stats::fit_modified_cauchy(curve.series);
  curve.cauchy = stats::fit_cauchy(curve.series);
  curve.gaussian = stats::fit_gaussian(curve.series);
}

}  // namespace

std::vector<PeakCorrelationBin> peak_correlation(const SnapshotData& snapshot,
                                                 const honeyfarm::MonthlyObservation& month,
                                                 double half_log_nv) {
  OBSCORR_REQUIRE(half_log_nv > 0.0, "half_log_nv must be positive");
  const std::vector<int> row_bin = row_bins(snapshot.sources);
  std::vector<PeakCorrelationBin> bins;
  for (const int b : row_bin) {
    if (b < 0) continue;
    if (bins.size() <= static_cast<std::size_t>(b)) {
      bins.resize(static_cast<std::size_t>(b) + 1);
      for (std::size_t i = 0; i < bins.size(); ++i) bins[i].bin = static_cast<int>(i);
    }
    ++bins[static_cast<std::size_t>(b)].caida_sources;
  }
  for_each_shared_key(snapshot.sources.row_keys(), month.sources.row_keys(), [&](std::size_t r) {
    if (row_bin[r] >= 0) ++bins[static_cast<std::size_t>(row_bin[r])].matched;
  });
  for (auto& cell : bins) {
    if (cell.caida_sources > 0) {
      cell.fraction = static_cast<double>(cell.matched) / static_cast<double>(cell.caida_sources);
    }
    // The paper's empirical law evaluated at the bin centre.
    cell.model = std::min(1.0, (static_cast<double>(cell.bin) + 0.5) / half_log_nv);
  }
  return bins;
}

std::vector<PeakCorrelationBin> peak_correlation_all(const StudyData& study) {
  return peak_correlation_all(study.snapshots, study.months, study.half_log_nv());
}

std::vector<PeakCorrelationBin> peak_correlation_all(
    std::span<const SnapshotData> snapshots,
    std::span<const honeyfarm::MonthlyObservation> months, double half_log_nv) {
  std::vector<PeakCorrelationBin> total;
  for (const SnapshotData& snap : snapshots) {
    OBSCORR_REQUIRE(static_cast<std::size_t>(snap.month_index) < months.size(),
                    "snapshot month outside honeyfarm coverage");
    const auto bins = peak_correlation(
        snap, months[static_cast<std::size_t>(snap.month_index)], half_log_nv);
    if (total.size() < bins.size()) {
      const std::size_t old = total.size();
      total.resize(bins.size());
      for (std::size_t i = old; i < total.size(); ++i) {
        total[i].bin = static_cast<int>(i);
        total[i].model = bins[i].model;
      }
    }
    for (std::size_t i = 0; i < bins.size(); ++i) {
      total[i].caida_sources += bins[i].caida_sources;
      total[i].matched += bins[i].matched;
    }
  }
  for (auto& cell : total) {
    if (cell.caida_sources > 0) {
      cell.fraction = static_cast<double>(cell.matched) / static_cast<double>(cell.caida_sources);
    }
  }
  return total;
}

std::optional<TemporalCorrelation> temporal_correlation(const SnapshotData& snapshot,
                                                        const StudyData& study, int bin,
                                                        std::uint64_t min_sources) {
  return temporal_correlation(snapshot, study.months, bin, min_sources);
}

std::optional<TemporalCorrelation> temporal_correlation(
    const SnapshotData& snapshot, std::span<const honeyfarm::MonthlyObservation> months,
    int bin, std::uint64_t min_sources) {
  const std::vector<std::string> tracked = bin_sources(snapshot, bin);
  if (tracked.size() < min_sources) return std::nullopt;

  TemporalCorrelation out;
  out.bin = bin;
  out.bin_sources = tracked.size();
  for (std::size_t m = 0; m < months.size(); ++m) {
    std::uint64_t matched = 0;
    for (const std::string& ip : tracked) {
      if (months[m].sources.has_row(ip)) ++matched;
    }
    out.series.dt.push_back(static_cast<double>(static_cast<int>(m) - snapshot.month_index));
    out.series.fraction.push_back(static_cast<double>(matched) /
                                  static_cast<double>(tracked.size()));
  }
  fit_curve(out);
  return out;
}

std::vector<FitGridCell> fit_grid(const StudyData& study, std::uint64_t min_sources) {
  return fit_grid(study.snapshots, study.months, min_sources);
}

std::vector<FitGridCell> fit_grid(const StudyData& study, std::uint64_t min_sources,
                                  ThreadPool& pool) {
  return fit_grid(study.snapshots, study.months, min_sources, pool);
}

std::vector<FitGridCell> fit_grid(std::span<const SnapshotData> snapshots,
                                  std::span<const honeyfarm::MonthlyObservation> months,
                                  std::uint64_t min_sources) {
  return fit_grid(snapshots, months, min_sources, ThreadPool::global());
}

std::vector<FitGridCell> fit_grid(std::span<const SnapshotData> snapshots,
                                  std::span<const honeyfarm::MonthlyObservation> months,
                                  std::uint64_t min_sources, ThreadPool& pool) {
  const obs::Span span("study.fit_grid");
  const std::size_t n_snap = snapshots.size();
  const std::size_t n_month = months.size();

  // Per snapshot: each source's brightness bin, the cells' bin range (the
  // same max_bin the per-cell enumeration used) and the sources per bin
  // (sized to cover both).
  std::vector<std::vector<int>> row_bin(n_snap);
  std::vector<std::size_t> bin_count(n_snap);
  std::vector<std::vector<std::uint64_t>> tracked(n_snap);
  for (std::size_t s = 0; s < n_snap; ++s) {
    row_bin[s] = row_bins(snapshots[s].sources);
    const int max_bin = log2_bin(static_cast<std::uint64_t>(
        std::max(1.0, snapshots[s].source_packets.reduce_max())));
    int top = max_bin;
    for (const int b : row_bin[s]) top = std::max(top, b);
    bin_count[s] = static_cast<std::size_t>(max_bin) + 1;
    tracked[s].assign(static_cast<std::size_t>(top) + 1, 0);
    for (const int b : row_bin[s]) {
      if (b >= 0) ++tracked[s][static_cast<std::size_t>(b)];
    }
  }

  // Month membership, once per (snapshot, month) pair instead of once per
  // (cell, month, source): matched[s * n_month + m][bin] counts the
  // snapshot's bin-`bin` sources present in month m. Pairs run as pool
  // tasks, largest month first.
  std::vector<std::vector<std::uint64_t>> matched(n_snap * n_month);
  std::vector<std::size_t> pair_order(matched.size());
  std::iota(pair_order.begin(), pair_order.end(), std::size_t{0});
  std::stable_sort(pair_order.begin(), pair_order.end(), [&](std::size_t x, std::size_t y) {
    return months[x % n_month].sources.row_keys().size() >
           months[y % n_month].sources.row_keys().size();
  });
  parallel_claim(pool, pair_order, [&](std::size_t p) {
    const std::size_t s = p / n_month;
    std::vector<std::uint64_t> counts(tracked[s].size(), 0);
    for_each_shared_key(snapshots[s].sources.row_keys(), months[p % n_month].sources.row_keys(),
                        [&](std::size_t r) {
                          if (row_bin[s][r] >= 0) ++counts[static_cast<std::size_t>(row_bin[s][r])];
                        });
    matched[p] = std::move(counts);
  });

  // The (snapshot, bin) cells with enough sources, in (snapshot, bin)
  // order — the order the per-cell loop produced — fitted as pool tasks.
  std::vector<FitGridCell> grid;
  for (std::size_t s = 0; s < n_snap; ++s) {
    for (std::size_t bin = 0; bin < bin_count[s]; ++bin) {
      const std::uint64_t sources = tracked[s][bin];
      if (sources < min_sources) continue;
      FitGridCell cell{s, {}};
      cell.curve.bin = static_cast<int>(bin);
      cell.curve.bin_sources = sources;
      for (std::size_t m = 0; m < n_month; ++m) {
        cell.curve.series.dt.push_back(
            static_cast<double>(static_cast<int>(m) - snapshots[s].month_index));
        cell.curve.series.fraction.push_back(static_cast<double>(matched[s * n_month + m][bin]) /
                                             static_cast<double>(sources));
      }
      grid.push_back(std::move(cell));
    }
  }
  std::vector<std::size_t> cell_order(grid.size());
  std::iota(cell_order.begin(), cell_order.end(), std::size_t{0});
  parallel_claim(pool, cell_order, [&](std::size_t i) { fit_curve(grid[i].curve); });
  return grid;
}

}  // namespace obscorr::core
