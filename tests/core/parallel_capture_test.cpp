#include "core/parallel_capture.hpp"

#include <gtest/gtest.h>

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "netgen/population.hpp"

namespace obscorr::core {
namespace {

/// Differential suite for `capture_window`: at every window size and
/// pool size it must equal one telescope fed the window's shards in
/// order, serially — the plain streaming capture, kept here as the
/// oracle.

using netgen::TrafficGenerator;

constexpr std::uint64_t kShard = TrafficGenerator::kShardValidPackets;

struct Fixture {
  netgen::Scenario scenario = netgen::Scenario::paper(/*log2_nv=*/14, /*seed=*/42);
  netgen::Population population{scenario.population};
  TrafficGenerator generator{population, scenario.traffic};
  telescope::TelescopeConfig config = [this] {
    telescope::TelescopeConfig c = telescope_config(scenario);
    c.block_log2 = 14;  // several leaf blocks per shard, block edges off the shard edges
    return c;
  }();
};

constexpr int kMonth = 1;
constexpr std::uint64_t kSalt = 0x5A17;

/// The oracle: every shard of the window, in order, into one telescope.
gbl::DcsrMatrix capture_serially(telescope::Telescope& scope, const TrafficGenerator& generator,
                                 std::uint64_t valid_count) {
  const netgen::WindowPlan plan = generator.plan_window(kMonth);
  netgen::ShardScratch scratch;
  for (std::size_t s = 0; s < TrafficGenerator::shard_count(valid_count); ++s) {
    generator.stream_shard_batched(
        plan, TrafficGenerator::shard_valid_packets(valid_count, s), kSalt, s, scratch,
        [&](std::span<const Packet> batch) { scope.capture_block(batch); });
  }
  return scope.finish_window();
}

void expect_same_capture(const gbl::DcsrMatrix& matrix, const telescope::Telescope& scope,
                         const gbl::DcsrMatrix& ref_matrix, const telescope::Telescope& ref,
                         const std::string& label) {
  EXPECT_EQ(matrix, ref_matrix) << label;
  EXPECT_EQ(scope.discarded_packets(), ref.discarded_packets()) << label;
  // Every observed source id deanonymizes, to the oracle's address.
  std::size_t unknown = 0, mismatched = 0;
  for (const gbl::Index row : matrix.row_ids()) {
    try {
      if (scope.deanonymize(Ipv4(row)).value() != ref.deanonymize(Ipv4(row)).value()) {
        ++mismatched;
      }
    } catch (const std::invalid_argument&) {
      ++unknown;
    }
  }
  EXPECT_EQ(unknown, 0u) << label;
  EXPECT_EQ(mismatched, 0u) << label;
}

TEST(ParallelCaptureTest, MatchesSerialShardCaptureAtEveryPoolSize) {
  const Fixture f;
  for (const std::uint64_t valid : {kShard, 2 * kShard, 7 * kShard / 2, 8 * kShard}) {
    ThreadPool ref_pool(1);
    telescope::Telescope ref(f.config, ref_pool);
    const gbl::DcsrMatrix ref_matrix = capture_serially(ref, f.generator, valid);
    ASSERT_EQ(ref_matrix.reduce_sum(), static_cast<double>(valid));
    ASSERT_GT(ref.discarded_packets(), 0u);  // the discard tally is really compared
    for (const std::size_t threads : {1u, 2u, 4u, 7u}) {
      ThreadPool pool(threads);
      telescope::Telescope scope(f.config, pool);
      const gbl::DcsrMatrix matrix =
          capture_window(scope, f.generator, kMonth, valid, kSalt, pool);
      expect_same_capture(matrix, scope, ref_matrix, ref,
                          std::to_string(valid) + " packets, " + std::to_string(threads) +
                              " threads");
    }
  }
}

TEST(ParallelCaptureTest, SingleShardWindowMatchesUnshardedStream) {
  // A one-shard window is the historical unsharded stream.
  const Fixture f;
  for (const std::uint64_t valid : {std::uint64_t{1000}, kShard}) {
    ThreadPool ref_pool(1);
    telescope::Telescope ref(f.config, ref_pool);
    f.generator.stream_window_batched(kMonth, valid, kSalt,
                                      [&](std::span<const Packet> b) { ref.capture_block(b); });
    const gbl::DcsrMatrix ref_matrix = ref.finish_window();
    for (const std::size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      telescope::Telescope scope(f.config, pool);
      const gbl::DcsrMatrix matrix =
          capture_window(scope, f.generator, kMonth, valid, kSalt, pool);
      expect_same_capture(matrix, scope, ref_matrix, ref,
                          std::to_string(valid) + " packets, " + std::to_string(threads) +
                              " threads");
    }
  }
}

}  // namespace
}  // namespace obscorr::core
