#pragma once
/// \file monitor.hpp
/// The live glue: one Monitor owns a SeriesStore plus a DetectorBank and
/// feeds them each published window — from an archive replay (`obscorr
/// correlate --events`, priming in `obscorr serve`) or from the resident
/// service's ingest loop. Anomaly events are returned to the caller (the
/// serve loop pushes them to `watch` subscribers) and, when configured,
/// appended to an NDJSON sidecar log next to the archive so offline
/// tooling sees the same stream.
///
/// Threading: a Monitor is driven by exactly one thread (the ingest
/// thread in `obscorr serve`); it is not internally synchronized.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/detectors.hpp"
#include "analysis/window_series.hpp"
#include "archive/study_archive.hpp"

namespace obscorr::analysis {

struct MonitorConfig {
  DetectorConfig detectors;
  /// NDJSON sidecar path for anomaly events; empty disables the log.
  std::string event_log_path;
};

/// {"event":"window",...} push line for one published window — the
/// heartbeat `watch` subscribers key their exactly-once accounting on.
std::string window_event_json(const archive::LiveWindowMeta& meta);

class Monitor {
 public:
  explicit Monitor(MonitorConfig cfg = {});

  /// Replay an archive's windows through the store and detectors, in
  /// order. Returns every event fired during the replay (callers priming
  /// a live monitor typically discard them; `correlate --events` prints
  /// them). The sidecar log is *not* written during priming — only live
  /// observations are logged.
  std::vector<AnomalyEvent> prime(const archive::StudyReader& reader, Domain domain);

  /// The same replay over a store already loaded from `reader`'s
  /// `domain` (`store_from_reader`): the windows are not sampled again,
  /// only their degree values are read for the shift detector.
  std::vector<AnomalyEvent> prime(const SeriesStore& samples, const archive::StudyReader& reader,
                                  Domain domain);

  /// Observe one live window: appends to the store, runs the detectors,
  /// appends any events to the sidecar log. Returns the events.
  std::vector<AnomalyEvent> observe_window(std::uint64_t window, const WindowSample& sample,
                                           std::span<const double> degrees);

  const SeriesStore& store() const { return store_; }
  const DetectorBank& detectors() const { return bank_; }

 private:
  MonitorConfig cfg_;
  SeriesStore store_;
  DetectorBank bank_;
};

}  // namespace obscorr::analysis
