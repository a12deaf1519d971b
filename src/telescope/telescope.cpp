#include "telescope/telescope.hpp"

#include "common/error.hpp"
#include "gbl/coo.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::telescope {

namespace {

/// Flush one batch's local tallies into the registry. Local stack
/// counters keep the per-packet loop free of atomics; the single branch
/// on the cached flag is the entire disabled-path cost.
void flush_capture_counters(std::uint64_t valid, std::uint64_t discarded, std::uint64_t hits,
                            std::uint64_t misses) {
  if (!obs::counters_enabled()) return;
  static obs::Counter& valid_packets = obs::counter("telescope.valid_packets");
  static obs::Counter& discarded_packets = obs::counter("telescope.discarded_packets");
  static obs::Counter& cache_hits = obs::counter("telescope.anon_cache_hits");
  static obs::Counter& cache_misses = obs::counter("telescope.anon_cache_misses");
  valid_packets.add(valid);
  discarded_packets.add(discarded);
  cache_hits.add(hits);
  cache_misses.add(misses);
}

/// How many packets ahead the capture loop prefetches anon-cache probe
/// slots. Deep enough to cover the table's DRAM latency with the work on
/// the packets in between, shallow enough to stay inside every batch.
constexpr std::size_t kCachePrefetchAhead = 8;

}  // namespace

Telescope::Telescope(TelescopeConfig config, ThreadPool& pool)
    : config_(std::move(config)),
      cryptopan_(crypt::CryptoPan::from_seed(config_.cryptopan_seed)),
      state_(config_.block_log2, pool) {}

bool Telescope::is_valid(const Packet& packet) const {
  if (!config_.darkspace.contains(packet.dst)) return false;
  for (const Ipv4Prefix& legit : config_.legit_prefixes) {
    if (legit.contains(packet.src)) return false;
  }
  return true;
}

std::uint32_t Telescope::anonymize_into(WindowState& state, std::uint32_t addr) const {
  if (const std::uint32_t* hit = state.anon_cache.find(addr)) return *hit;
  const std::uint32_t anon = cryptopan_.anonymize(Ipv4(addr)).value();
  state.anon_cache.insert(addr, anon);
  state.dictionary.emplace(anon, addr);
  return anon;
}

std::uint64_t Telescope::capture_into(WindowState& state, std::span<const Packet> packets) const {
  state.batch_keys.clear();
  state.batch_keys.reserve(packets.size());
  // Every memo miss inserts exactly one entry, so the memo's growth is
  // the miss count and the loop itself counts nothing.
  const std::size_t memo_before = state.anon_cache.size();
  std::uint64_t discarded = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i + kCachePrefetchAhead < packets.size()) {
      const Packet& ahead = packets[i + kCachePrefetchAhead];
      state.anon_cache.prefetch(ahead.src.value());
      state.anon_cache.prefetch(ahead.dst.value());
    }
    const Packet& p = packets[i];
    if (!is_valid(p)) {
      ++discarded;
      continue;
    }
    const std::uint32_t src = anonymize_into(state, p.src.value());
    const std::uint32_t dst = anonymize_into(state, p.dst.value());
    state.batch_keys.push_back(gbl::pack_key(src, dst));
  }
  state.discarded += discarded;
  state.accumulator.add_packets(state.batch_keys);
  const std::uint64_t valid = state.batch_keys.size();
  const std::uint64_t misses = state.anon_cache.size() - memo_before;
  flush_capture_counters(valid, discarded, 2 * valid - misses, misses);
  return valid;
}

bool Telescope::capture(const Packet& packet) {
  return capture_into(state_, std::span<const Packet>(&packet, 1)) == 1;
}

std::uint64_t Telescope::capture_block(std::span<const Packet> packets) {
  return capture_into(state_, packets);
}

gbl::DcsrMatrix Telescope::finish_window() {
  static obs::Counter& merge_ns = obs::counter("telescope.merge_ns");
  const obs::Span span("telescope.finish_window");
  const obs::ScopedNsCounter merge_time(merge_ns);
  return state_.accumulator.finish();
}

Ipv4 Telescope::anonymize(Ipv4 addr) const { return Ipv4(anonymize_into(state_, addr.value())); }

Ipv4 Telescope::deanonymize(Ipv4 anon) const {
  const auto it = state_.dictionary.find(anon.value());
  OBSCORR_REQUIRE(it != state_.dictionary.end(),
                  "deanonymize: id never produced by this telescope: " + anon.to_string());
  return Ipv4(it->second);
}

Ipv4Prefix Telescope::anonymized_darkspace() const {
  // Prefix preservation: the darkspace base maps to the anonymized base
  // of a prefix with identical length.
  const Ipv4 anon_base = cryptopan_.anonymize(config_.darkspace.base());
  return Ipv4Prefix(anon_base, config_.darkspace.length());
}

void Telescope::absorb(ShardCapture&& shard) {
  OBSCORR_REQUIRE(shard.scope_ == this, "absorb: shard belongs to a different telescope");
  state_.discarded += shard.state_.discarded;
  state_.dictionary.merge(shard.state_.dictionary);
}

ShardCapture::ShardCapture(const Telescope& scope, ThreadPool& pool)
    : scope_(&scope), state_(scope.config_.block_log2, pool) {}

gbl::DcsrMatrix ShardCapture::finish() {
  static obs::Counter& merge_ns = obs::counter("telescope.merge_ns");
  const obs::Span span("telescope.shard_finish");
  const obs::ScopedNsCounter merge_time(merge_ns);
  return state_.accumulator.finish();
}

}  // namespace obscorr::telescope
