#pragma once
/// \file parallel_capture.hpp
/// Deterministic parallel capture of one telescope window.
///
/// The window's valid-packet budget splits into fixed generation shards
/// (`TrafficGenerator::kShardValidPackets` each); every shard's packets
/// are a pure function of (seed, month, salt, shard index). Workers
/// generate and capture contiguous shard runs into private
/// `ShardCapture` contexts, and the per-context matrices are summed in
/// run order. Because the matrix is an exact integer aggregation of the
/// shard packet multisets, the result is byte-identical at every thread
/// count and every window size. Shard 0 is the unsharded stream, so a
/// single-shard window (<= 2^16 valid packets) reproduces the historical
/// serial capture.

#include <cstdint>

#include "common/thread_pool.hpp"
#include "gbl/dcsr.hpp"
#include "netgen/scenario.hpp"
#include "netgen/traffic.hpp"
#include "telescope/telescope.hpp"

namespace obscorr::core {

/// The telescope a scenario is observed through: the scenario's
/// darkspace and legitimate-source prefix, and a CryptoPAN key derived
/// from its seed. Every capture of one scenario (campaign, window
/// series, scaling ladder, trace replay, live ingest) uses this config,
/// so all of them anonymize alike.
telescope::TelescopeConfig telescope_config(const netgen::Scenario& scenario);

/// Capture one constant-packet window of `valid_count` valid packets in
/// study month `month` through `scope`. Returns the window's anonymized
/// traffic matrix; the deanonymization dictionary and the discard
/// counter fold into `scope` (so `scope.deanonymize` covers every source
/// the window observed). Bit-identical at any `pool` size.
gbl::DcsrMatrix capture_window(telescope::Telescope& scope,
                               const netgen::TrafficGenerator& generator, int month,
                               std::uint64_t valid_count, std::uint64_t salt, ThreadPool& pool);

}  // namespace obscorr::core
