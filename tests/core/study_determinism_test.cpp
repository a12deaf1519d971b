#include <gtest/gtest.h>

#include <vector>

#include "core/correlation.hpp"
#include "core/study.hpp"
#include "netgen/traffic.hpp"
#include "obs/telemetry.hpp"
#include "stats/bootstrap.hpp"

namespace obscorr::core {
namespace {

/// The differential determinism suite: the parallel execution model
/// (sharded generation, concurrent snapshots/months, parallel fits)
/// promises BYTE-identical results at any thread count. These tests pin
/// that promise on windows large enough to split into multiple
/// generation shards, so the merge path is actually exercised.

void expect_same_snapshots(const StudyData& a, const StudyData& b, const char* label) {
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size()) << label;
  for (std::size_t i = 0; i < a.snapshots.size(); ++i) {
    EXPECT_EQ(a.snapshots[i].matrix, b.snapshots[i].matrix) << label << " snapshot " << i;
    EXPECT_EQ(a.snapshots[i].source_packets, b.snapshots[i].source_packets)
        << label << " snapshot " << i;
    EXPECT_EQ(a.snapshots[i].sources, b.snapshots[i].sources) << label << " snapshot " << i;
    EXPECT_EQ(a.snapshots[i].valid_packets, b.snapshots[i].valid_packets) << label << " " << i;
    EXPECT_EQ(a.snapshots[i].discarded_packets, b.snapshots[i].discarded_packets)
        << label << " " << i;
  }
}

TEST(StudyDeterminismTest, MultiShardSnapshotsAreByteIdenticalAcrossThreadCounts) {
  // 2^17 valid packets = 2 generation shards per window: the 1-thread
  // pool captures both shards in one chunk, the 2- and 7-thread pools in
  // one chunk each, merged with ewise_add. Two snapshots keep the test
  // fast while still covering the concurrent-windows fan-out.
  netgen::Scenario scenario = netgen::Scenario::paper(/*log2_nv=*/17, /*seed=*/42);
  scenario.snapshots.resize(2);
  ASSERT_GT(scenario.nv(), netgen::TrafficGenerator::kShardValidPackets);

  ThreadPool pool1(1);
  const StudyData base = run_telescope_only(scenario, pool1);
  for (const std::size_t threads : {2u, 7u}) {
    ThreadPool pool(threads);
    const StudyData again = run_telescope_only(scenario, pool);
    expect_same_snapshots(base, again, "threads");
  }
}

TEST(StudyDeterminismTest, FullStudyMatchesSerialExecutionExactly) {
  const auto scenario = netgen::Scenario::paper(/*log2_nv=*/14, /*seed=*/42);
  ThreadPool pool1(1);
  const StudyData serial = run_study(scenario, pool1);
  ThreadPool pool3(3);
  const StudyData parallel = run_study(scenario, pool3);

  expect_same_snapshots(serial, parallel, "full study");
  ASSERT_EQ(serial.months.size(), parallel.months.size());
  for (std::size_t m = 0; m < serial.months.size(); ++m) {
    EXPECT_EQ(serial.months[m].month, parallel.months[m].month) << m;
    EXPECT_EQ(serial.months[m].sources, parallel.months[m].sources) << m;
    EXPECT_EQ(serial.months[m].population_sources, parallel.months[m].population_sources) << m;
    EXPECT_EQ(serial.months[m].ephemeral_sources, parallel.months[m].ephemeral_sources) << m;
  }
}

TEST(StudyDeterminismTest, TelemetryLevelNeverPerturbsResults) {
  // Telemetry is write-only during execution: a 1-thread disabled run
  // and an N-thread fully-traced run must produce byte-identical
  // snapshots, on a window large enough to exercise the sharded merge.
  netgen::Scenario scenario = netgen::Scenario::paper(/*log2_nv=*/17, /*seed=*/42);
  scenario.snapshots.resize(2);
  ASSERT_GT(scenario.nv(), netgen::TrafficGenerator::kShardValidPackets);

  obs::set_level(obs::Level::kOff);
  ThreadPool pool1(1);
  const StudyData off_serial = run_telescope_only(scenario, pool1);

  obs::reset();
  obs::set_level(obs::Level::kFull);
  ThreadPool pool4(4);
  const StudyData on_parallel = run_telescope_only(scenario, pool4);
  obs::set_level(obs::Level::kOff);

  expect_same_snapshots(off_serial, on_parallel, "telemetry on/off");

  // The run really was instrumented: the counters saw every packet.
  const std::uint64_t nv_total = scenario.nv() * scenario.snapshots.size();
  EXPECT_EQ(obs::counter("netgen.valid_packets").value(), nv_total);
  EXPECT_EQ(obs::counter("telescope.valid_packets").value(), nv_total);
  obs::reset();
}

TEST(StudyDeterminismTest, FitGridIsThreadCountInvariant) {
  ThreadPool build_pool(2);
  const StudyData study = run_study(netgen::Scenario::paper(14, 42), build_pool);

  ThreadPool pool1(1);
  const auto serial = fit_grid(study, 20, pool1);
  ASSERT_FALSE(serial.empty());
  for (const std::size_t threads : {4u}) {
    ThreadPool pool(threads);
    const auto parallel = fit_grid(study, 20, pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].snapshot, serial[i].snapshot) << i;
      EXPECT_EQ(parallel[i].curve.bin, serial[i].curve.bin) << i;
      EXPECT_EQ(parallel[i].curve.bin_sources, serial[i].curve.bin_sources) << i;
      EXPECT_EQ(parallel[i].curve.series.fraction, serial[i].curve.series.fraction) << i;
      // Fits are plain deterministic arithmetic on identical series.
      EXPECT_EQ(parallel[i].curve.modified_cauchy.model.alpha,
                serial[i].curve.modified_cauchy.model.alpha) << i;
      EXPECT_EQ(parallel[i].curve.modified_cauchy.model.beta,
                serial[i].curve.modified_cauchy.model.beta) << i;
    }
  }
}

TEST(StudyDeterminismTest, BootstrapFractionIsThreadCountInvariant) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  // Small-trials (exact Bernoulli resampling) and large-trials (normal
  // approximation) paths both draw from per-replicate streams.
  for (const std::uint64_t trials : {std::uint64_t{1000}, std::uint64_t{50000}}) {
    const std::uint64_t successes = trials / 3;
    const auto a = stats::bootstrap_fraction(successes, trials, 0.95, 7, 500, pool1);
    const auto b = stats::bootstrap_fraction(successes, trials, 0.95, 7, 500, pool4);
    EXPECT_EQ(a.fraction, b.fraction) << trials;
    EXPECT_EQ(a.lo, b.lo) << trials;
    EXPECT_EQ(a.hi, b.hi) << trials;
    EXPECT_LE(a.lo, a.fraction);
    EXPECT_LE(a.fraction, a.hi);
  }
}

}  // namespace
}  // namespace obscorr::core
