/// Differential tests of the fit grid and the same-month correlation
/// against their per-cell reference paths: `fit_grid` must return exactly
/// the cells, in exactly the order, with exactly the doubles that one
/// `temporal_correlation` call per (snapshot, bin) produces, and
/// `peak_correlation` must count exactly what one `has_row` lookup per
/// source counts — on the golden archive and on fresh studies, at every
/// `min_sources` and pool size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "archive/study_archive.hpp"
#include "common/binning.hpp"
#include "core/correlation.hpp"

#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

namespace obscorr::core {
namespace {

/// The per-cell enumeration: every (snapshot, bin) cell through the
/// single-curve path, serially, in (snapshot, bin) order.
std::vector<FitGridCell> oracle_grid(const StudyData& study, std::uint64_t min_sources) {
  std::vector<FitGridCell> grid;
  for (std::size_t s = 0; s < study.snapshots.size(); ++s) {
    const int max_bin = log2_bin(static_cast<std::uint64_t>(
        std::max(1.0, study.snapshots[s].source_packets.reduce_max())));
    for (int bin = 0; bin <= max_bin; ++bin) {
      auto curve = temporal_correlation(study.snapshots[s], study.months, bin, min_sources);
      if (curve.has_value()) grid.push_back({s, std::move(*curve)});
    }
  }
  return grid;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_grid(const std::vector<FitGridCell>& got, const std::vector<FitGridCell>& want,
                      const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const TemporalCorrelation& g = got[i].curve;
    const TemporalCorrelation& w = want[i].curve;
    const std::string at = where + " cell " + std::to_string(i);
    EXPECT_EQ(got[i].snapshot, want[i].snapshot) << at;
    EXPECT_EQ(g.bin, w.bin) << at;
    EXPECT_EQ(g.bin_sources, w.bin_sources) << at;
    EXPECT_TRUE(same_bits(g.series.dt, w.series.dt)) << at;
    EXPECT_TRUE(same_bits(g.series.fraction, w.series.fraction)) << at;
    EXPECT_TRUE(same_bits(g.modified_cauchy.model.alpha, w.modified_cauchy.model.alpha)) << at;
    EXPECT_TRUE(same_bits(g.modified_cauchy.model.beta, w.modified_cauchy.model.beta)) << at;
    EXPECT_TRUE(same_bits(g.modified_cauchy.amplitude, w.modified_cauchy.amplitude)) << at;
    EXPECT_TRUE(same_bits(g.modified_cauchy.residual, w.modified_cauchy.residual)) << at;
    EXPECT_TRUE(same_bits(g.cauchy.model.gamma, w.cauchy.model.gamma)) << at;
    EXPECT_TRUE(same_bits(g.cauchy.amplitude, w.cauchy.amplitude)) << at;
    EXPECT_TRUE(same_bits(g.cauchy.residual, w.cauchy.residual)) << at;
    EXPECT_TRUE(same_bits(g.gaussian.model.sigma, w.gaussian.model.sigma)) << at;
    EXPECT_TRUE(same_bits(g.gaussian.amplitude, w.gaussian.amplitude)) << at;
    EXPECT_TRUE(same_bits(g.gaussian.residual, w.gaussian.residual)) << at;
  }
}

/// Fig. 4 counted the reference way: one `has_row` per telescope source.
std::vector<PeakCorrelationBin> oracle_peak(const SnapshotData& snapshot,
                                            const honeyfarm::MonthlyObservation& month) {
  std::vector<PeakCorrelationBin> bins;
  for (const d4m::Triple& t : snapshot.sources.to_triples()) {
    if (t.col != "packets" || t.val < 1.0) continue;
    const auto b = static_cast<std::size_t>(log2_bin(static_cast<std::uint64_t>(t.val)));
    if (bins.size() <= b) bins.resize(b + 1);
    ++bins[b].caida_sources;
    if (month.sources.has_row(t.row)) ++bins[b].matched;
  }
  return bins;
}

void check_study(const StudyData& study, const std::string& label) {
  for (const std::uint64_t min_sources : {0ull, 1ull, 20ull, 1000000ull}) {
    const auto want = oracle_grid(study, min_sources);
    if (min_sources == 1000000) EXPECT_TRUE(want.empty());
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      ThreadPool pool(threads);
      expect_same_grid(fit_grid(study, min_sources, pool), want,
                       label + " min_sources " + std::to_string(min_sources) + " threads " +
                           std::to_string(threads));
    }
  }
  for (const SnapshotData& snap : study.snapshots) {
    for (const auto& month : study.months) {
      const auto got = peak_correlation(snap, month, study.half_log_nv());
      const auto want = oracle_peak(snap, month);
      ASSERT_EQ(got.size(), want.size()) << label;
      for (std::size_t b = 0; b < got.size(); ++b) {
        EXPECT_EQ(got[b].bin, static_cast<int>(b)) << label;
        EXPECT_EQ(got[b].caida_sources, want[b].caida_sources) << label << " bin " << b;
        EXPECT_EQ(got[b].matched, want[b].matched) << label << " bin " << b;
      }
    }
  }
}

TEST(FitGridDifferentialTest, GoldenArchiveMatchesPerCellPath) {
  const archive::StudyReader reader(std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study");
  check_study(reader.analysis_study(), "golden");
}

TEST(FitGridDifferentialTest, FreshStudiesMatchPerCellPath) {
  ThreadPool pool(4);
  for (const int log2_nv : {14, 16}) {
    const StudyData study = run_study(netgen::Scenario::paper(log2_nv, 7), pool);
    check_study(study, "nv " + std::to_string(log2_nv));
  }
}

}  // namespace
}  // namespace obscorr::core
