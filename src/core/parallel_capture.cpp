#include "core/parallel_capture.hpp"

#include <algorithm>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hpp"

namespace obscorr::core {

telescope::TelescopeConfig telescope_config(const netgen::Scenario& scenario) {
  telescope::TelescopeConfig config;
  config.darkspace = scenario.traffic.darkspace;
  config.legit_prefixes = {scenario.traffic.legit_prefix};
  config.cryptopan_seed = scenario.population.seed ^ 0xCA1DAULL;
  return config;
}

gbl::DcsrMatrix capture_window(telescope::Telescope& scope,
                               const netgen::TrafficGenerator& generator, int month,
                               std::uint64_t valid_count, std::uint64_t salt, ThreadPool& pool) {
  using netgen::TrafficGenerator;
  const obs::Span span("core.capture_window", [&] { return std::to_string(month); });
  const std::uint64_t shards = TrafficGenerator::shard_count(valid_count);

  // Shared read-only sampling plan; per-run private capture contexts.
  // parallel_for's static split assigns each run a contiguous shard
  // range (a single run on a 1-thread pool or for a one-shard window).
  // Runs are summed in first-shard order below, but any grouping yields
  // the same matrix: shard packet multisets are fixed by (seed, month,
  // salt, shard) and counts aggregate exactly.
  const netgen::WindowPlan plan = generator.plan_window(month);
  std::mutex collect_mutex;
  std::vector<std::pair<std::size_t, gbl::DcsrMatrix>> runs;
  // parallel_for hands out at most one contiguous chunk per worker.
  runs.reserve(static_cast<std::size_t>(pool.thread_count()));
  parallel_for(pool, 0, static_cast<std::size_t>(shards), [&](std::size_t b, std::size_t e) {
    telescope::ShardCapture capture(scope, pool);
    netgen::ShardScratch scratch;
    for (std::size_t s = b; s < e; ++s) {
      generator.stream_shard_batched(
          plan, TrafficGenerator::shard_valid_packets(valid_count, s), salt, s, scratch,
          [&](std::span<const Packet> batch) { capture.capture_block(batch); });
    }
    gbl::DcsrMatrix matrix = capture.finish();
    std::scoped_lock lock(collect_mutex);
    scope.absorb(std::move(capture));
    runs.emplace_back(b, std::move(matrix));
  });

  std::sort(runs.begin(), runs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<gbl::DcsrMatrix> level;
  level.reserve(runs.size());
  for (auto& run : runs) level.push_back(std::move(run.second));
  // Pairwise tree sum, neighbours first; the merges of one level run
  // concurrently, which halves the chain of merges a window waits on.
  while (level.size() > 1) {
    std::vector<gbl::DcsrMatrix> next((level.size() + 1) / 2);
    parallel_for(pool, 0, next.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        next[i] = 2 * i + 1 < level.size()
                      ? gbl::DcsrMatrix::ewise_add(level[2 * i], level[2 * i + 1], pool)
                      : std::move(level[2 * i]);
      }
    });
    level = std::move(next);
  }
  return std::move(level.front());
}

}  // namespace obscorr::core
