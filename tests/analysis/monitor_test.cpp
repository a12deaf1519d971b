/// Monitor: archive replay priming, live observation with the NDJSON
/// anomaly sidecar, and the window push-event serialization.

#include "analysis/monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "archive/live_archive.hpp"
#include "archive/study_archive.hpp"
#include "common/thread_pool.hpp"
#include "gbl/dcsr.hpp"
#include "netgen/scenario.hpp"

namespace obscorr::analysis {
namespace {

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string completed_archive(const std::string& name) {
  const std::string dir = temp_dir(name);
  ThreadPool pool(2);
  archive::archive_study(netgen::Scenario::paper(/*log2_nv=*/10, /*seed=*/7), dir, pool);
  return dir;
}

gbl::DcsrMatrix window_matrix(std::size_t w, double scale) {
  std::vector<gbl::Tuple> tuples;
  for (std::uint32_t i = 0; i < 8; ++i) {
    tuples.push_back({static_cast<gbl::Index>(w * 100 + i), i, scale * double(i + 1)});
    tuples.push_back({static_cast<gbl::Index>(w * 100 + i), i + 8, scale * 2.0});
  }
  return gbl::DcsrMatrix::from_tuples(std::move(tuples));
}

void append_window(archive::LiveArchive& live, std::size_t w, double scale) {
  archive::LiveWindowMeta meta;
  meta.window = w;
  meta.month_index = static_cast<std::int32_t>(w % 15);
  meta.salt = 0x11E50000ull + w;
  const gbl::DcsrMatrix m = window_matrix(w, scale);
  meta.valid_packets = static_cast<std::uint64_t>(m.reduce_sum());
  meta.duration_sec = 3.5;
  live.append_window(meta, m, m.reduce_rows());
}

TEST(MonitorTest, PrimeReplaysArchiveAndFlagsInjectedSurge) {
  const std::string dir = completed_archive("monitor_prime");
  {
    archive::LiveArchive live(dir);
    for (std::size_t w = 0; w < 10; ++w) append_window(live, w, w == 8 ? 8.0 : 1.0);
  }
  archive::StudyReader reader(dir);
  Monitor monitor;
  const std::vector<AnomalyEvent> events = monitor.prime(reader, Domain::kWindows);
  EXPECT_EQ(monitor.store().window_count(), 10u);

  // The surge at window 8 fires; the detectors stay silent elsewhere
  // (window 9 returns to baseline, which is itself a detectable step
  // back — accept events only at 8 and 9).
  ASSERT_FALSE(events.empty());
  bool surge_flagged = false;
  for (const AnomalyEvent& e : events) {
    EXPECT_TRUE(e.window == 8 || e.window == 9) << e.window << " " << e.metric;
    if (e.window == 8 && e.metric == "table2.valid_packets") surge_flagged = true;
  }
  EXPECT_TRUE(surge_flagged);
}

/// The replay priming did before it reused a loaded store: sample every
/// window again and feed a fresh detector bank. The oracle for both
/// `prime` overloads.
std::vector<std::string> resampled_events(const archive::StudyReader& reader, Domain domain,
                                          SeriesStore& store) {
  DetectorBank bank;
  std::vector<std::string> out;
  const bool snapshots = domain == Domain::kSnapshots;
  const std::size_t n = snapshots ? reader.snapshot_count() : reader.window_count();
  for (std::size_t w = 0; w < n; ++w) {
    const WindowSample sample = snapshots ? sample_snapshot(reader, w) : sample_window(reader, w);
    const gbl::SparseVec sources =
        snapshots ? reader.source_packets(w) : reader.window_source_packets(w);
    store.append(sample);
    for (const AnomalyEvent& e : bank.observe(w, metric_row(sample), sources.values())) {
      out.push_back(event_json(e));
    }
  }
  return out;
}

std::vector<std::string> event_lines(const std::vector<AnomalyEvent>& events) {
  std::vector<std::string> out;
  for (const AnomalyEvent& e : events) out.push_back(event_json(e));
  return out;
}

void expect_same_store(const SeriesStore& got, const SeriesStore& want) {
  ASSERT_EQ(got.window_count(), want.window_count());
  for (std::size_t i = 0; i < want.series_count(); ++i) {
    const std::span<const double> a = got.series(i);
    const std::span<const double> b = want.series(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << want.names()[i];
  }
}

TEST(MonitorTest, PrimeFromLoadedStoreMatchesResamplingReplay) {
  const std::string dir = completed_archive("monitor_prime_store");
  {
    archive::LiveArchive live(dir);
    for (std::size_t w = 0; w < 10; ++w) append_window(live, w, w == 6 ? 5.0 : 1.0);
  }
  archive::StudyReader reader(dir);
  ThreadPool pool(3);
  for (const Domain domain : {Domain::kSnapshots, Domain::kWindows}) {
    SeriesStore want_store;
    const std::vector<std::string> want = resampled_events(reader, domain, want_store);
    if (domain == Domain::kWindows) {
      EXPECT_FALSE(want.empty()) << "the surge at window 6 no longer fires";
    }

    Monitor from_store;
    const SeriesStore loaded = store_from_reader(reader, domain, pool);
    EXPECT_EQ(event_lines(from_store.prime(loaded, reader, domain)), want);
    expect_same_store(from_store.store(), want_store);

    Monitor from_reader;
    EXPECT_EQ(event_lines(from_reader.prime(reader, domain)), want);
    expect_same_store(from_reader.store(), want_store);
  }
}

TEST(MonitorTest, ObserveWindowAppendsSidecarEvents) {
  const std::string dir = temp_dir("monitor_sidecar");
  std::filesystem::create_directories(dir);
  MonitorConfig cfg;
  cfg.event_log_path = dir + "/anomalies.ndjson";
  Monitor monitor(cfg);

  WindowSample flat;
  flat.q.valid_packets = 1000.0;
  flat.q.unique_sources = 40;
  const std::vector<double> degrees(40, 4.0);
  for (std::uint64_t w = 0; w < 8; ++w) {
    EXPECT_TRUE(monitor.observe_window(w, flat, degrees).empty()) << w;
  }
  EXPECT_FALSE(std::filesystem::exists(cfg.event_log_path));  // nothing fired yet

  WindowSample surge = flat;
  surge.q.valid_packets = 9000.0;
  const std::vector<AnomalyEvent> events = monitor.observe_window(8, surge, degrees);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(monitor.store().window_count(), 9u);

  // Sidecar holds exactly the fired events, one JSON object per line.
  std::ifstream log(cfg.event_log_path);
  ASSERT_TRUE(log.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(log, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(lines[i], event_json(events[i]));
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
  }
}

TEST(MonitorTest, WindowEventJsonShape) {
  archive::LiveWindowMeta meta;
  meta.window = 5;
  meta.month_index = 2;
  meta.valid_packets = 4096;
  meta.discarded_packets = 17;
  EXPECT_EQ(window_event_json(meta),
            "{\"event\":\"window\",\"window\":5,\"month_index\":2,"
            "\"valid_packets\":4096,\"discarded_packets\":17}");
}

}  // namespace
}  // namespace obscorr::analysis
