/// The pool-backed archive reads must equal the serial ones exactly:
/// `StudyReader::analysis_study(pool)` against `analysis_study()` and
/// `store_from_reader(..., pool)` against the serial store, on raw and
/// fully compacted copies of the golden archive, at 1/2/4/7 threads, at
/// the active SIMD tier and at the scalar tier.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "analysis/window_series.hpp"
#include "archive/compact.hpp"
#include "archive/live_archive.hpp"
#include "archive/study_archive.hpp"
#include "common/simd.hpp"

#ifndef OBSCORR_TEST_DATA_DIR
#error "OBSCORR_TEST_DATA_DIR must point at tests/data"
#endif

namespace obscorr::analysis {
namespace {

namespace fs = std::filesystem;

std::string golden_copy(const std::string& name, bool compacted) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::copy(std::string(OBSCORR_TEST_DATA_DIR) + "/golden_study", dir, fs::copy_options::recursive);
  if (compacted) {
    archive::CompactOptions opts;
    opts.compress_all = true;
    archive::compact_archive(dir, opts);
  }
  return dir;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_study(const core::StudyData& got, const core::StudyData& want) {
  ASSERT_EQ(got.snapshots.size(), want.snapshots.size());
  ASSERT_EQ(got.months.size(), want.months.size());
  EXPECT_EQ(got.population, nullptr);
  for (std::size_t k = 0; k < got.snapshots.size(); ++k) {
    const core::SnapshotData& g = got.snapshots[k];
    const core::SnapshotData& w = want.snapshots[k];
    EXPECT_EQ(g.spec.start_label, w.spec.start_label) << k;
    EXPECT_EQ(g.spec.salt, w.spec.salt) << k;
    EXPECT_EQ(g.month_index, w.month_index) << k;
    EXPECT_EQ(g.valid_packets, w.valid_packets) << k;
    EXPECT_EQ(g.discarded_packets, w.discarded_packets) << k;
    EXPECT_TRUE(same_bits(std::span<const double>(&g.duration_sec, 1),
                          std::span<const double>(&w.duration_sec, 1)))
        << k;
    EXPECT_EQ(g.matrix, w.matrix) << k;
    EXPECT_EQ(g.source_packets, w.source_packets) << k;
    EXPECT_EQ(g.sources, w.sources) << k;
  }
  for (std::size_t m = 0; m < got.months.size(); ++m) {
    EXPECT_EQ(got.months[m].month, want.months[m].month) << m;
    EXPECT_EQ(got.months[m].population_sources, want.months[m].population_sources) << m;
    EXPECT_EQ(got.months[m].ephemeral_sources, want.months[m].ephemeral_sources) << m;
    EXPECT_EQ(got.months[m].sources, want.months[m].sources) << m;
  }
}

void expect_same_store(const SeriesStore& got, const SeriesStore& want) {
  ASSERT_EQ(got.window_count(), want.window_count());
  ASSERT_EQ(got.series_count(), want.series_count());
  for (std::size_t i = 0; i < got.series_count(); ++i) {
    EXPECT_TRUE(same_bits(got.series(i), want.series(i))) << got.names()[i];
  }
}

class ParallelLoadTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) simd::set_tier(simd::Tier::kScalar);
  }
  void TearDown() override { simd::set_tier(std::nullopt); }
};

TEST_P(ParallelLoadTest, PoolLoadsEqualSerialLoadsOnRawAndCompactedGolden) {
  for (const bool compacted : {false, true}) {
    SCOPED_TRACE(compacted ? "compacted" : "raw");
    const std::string dir = golden_copy(
        std::string(compacted ? "pl_golden_cmp" : "pl_golden_raw") + (GetParam() ? "_scalar" : ""),
        compacted);
    const archive::StudyReader reader(dir);
    const core::StudyData want = reader.analysis_study();
    const SeriesStore want_store = store_from_reader(reader, Domain::kSnapshots);
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      expect_same_study(reader.analysis_study(pool), want);
      expect_same_store(store_from_reader(reader, Domain::kSnapshots, pool), want_store);
      // A fresh reader: every compressed page decoded concurrently, cold.
      const archive::StudyReader cold(dir);
      expect_same_study(cold.analysis_study(pool), want);
    }
    fs::remove_all(dir);
  }
}

TEST_P(ParallelLoadTest, PoolStoreEqualsSerialStoreOverLiveWindows) {
  const std::string dir =
      golden_copy(std::string("pl_golden_live") + (GetParam() ? "_scalar" : ""), false);
  {
    archive::LiveArchive live(dir);
    for (std::size_t w = 0; w < 5; ++w) {
      std::vector<gbl::Tuple> tuples;
      for (std::uint32_t i = 0; i < 16; ++i) {
        tuples.push_back({static_cast<gbl::Index>(w * 50 + i), i % 5, double(i + w + 1)});
      }
      const gbl::DcsrMatrix m = gbl::DcsrMatrix::from_tuples(std::move(tuples));
      archive::LiveWindowMeta meta;
      meta.window = w;
      meta.valid_packets = static_cast<std::uint64_t>(m.reduce_sum());
      meta.duration_sec = 1.0 + static_cast<double>(w);
      live.append_window(meta, m, m.reduce_rows());
    }
  }
  const archive::StudyReader reader(dir);
  ASSERT_EQ(reader.window_count(), 5u);
  const SeriesStore want = store_from_reader(reader, Domain::kWindows);
  for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    expect_same_store(store_from_reader(reader, Domain::kWindows, pool), want);
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AutoAndScalar, ParallelLoadTest, ::testing::Values(false, true));

}  // namespace
}  // namespace obscorr::analysis
