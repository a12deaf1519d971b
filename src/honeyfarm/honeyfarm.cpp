#include "honeyfarm/honeyfarm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"

namespace obscorr::honeyfarm {

namespace {

/// Enrichment vocabularies: what the outpost's conversation layer labels
/// sources with. Chosen per source deterministically.
constexpr std::array<const char*, 3> kClassifications = {"malicious", "benign", "unknown"};
constexpr std::array<const char*, 4> kIntents = {"scan", "backscatter", "worm", "botnet-c2"};
constexpr std::array<const char*, 3> kProtocols = {"tcp", "udp", "icmp"};

/// Column ids of the exploded schema: the classifications, then the
/// intents, then the protocols, then the contacts count.
constexpr std::size_t kIntentBase = kClassifications.size();
constexpr std::size_t kProtocolBase = kIntentBase + kIntents.size();
constexpr std::size_t kContacts = kProtocolBase + kProtocols.size();
constexpr std::size_t kColumns = kContacts + 1;
constexpr std::uint8_t kUnknown = 2;
static_assert(std::string_view(kClassifications[kUnknown]) == "unknown");
constexpr std::uint8_t kNoLabel = 0xFF;

/// The column keys in string order, and each column id's rank in it —
/// the column order of the month's assoc array, worked out once.
struct ColumnOrder {
  std::array<std::string, kColumns> sorted;
  std::array<std::uint32_t, kColumns> rank{};
};

const ColumnOrder& column_order() {
  static const ColumnOrder order = [] {
    std::array<std::string, kColumns> keys;
    for (std::size_t i = 0; i < kClassifications.size(); ++i) {
      keys[i] = std::string("classification|") + kClassifications[i];
    }
    for (std::size_t i = 0; i < kIntents.size(); ++i) {
      keys[kIntentBase + i] = std::string("intent|") + kIntents[i];
    }
    for (std::size_t i = 0; i < kProtocols.size(); ++i) {
      keys[kProtocolBase + i] = std::string("protocol|") + kProtocols[i];
    }
    keys[kContacts] = "contacts";
    ColumnOrder o;
    o.sorted = keys;
    std::sort(o.sorted.begin(), o.sorted.end());
    for (std::size_t id = 0; id < kColumns; ++id) {
      o.rank[id] = static_cast<std::uint32_t>(
          std::find(o.sorted.begin(), o.sorted.end(), keys[id]) - o.sorted.begin());
    }
    return o;
  }();
  return order;
}

/// One observed source before assembly: its address key, its labels
/// (vocabulary indices) and its contact count. The key is the dotted
/// quad's text zero-padded to 16 bytes and read big-endian as two
/// words. No dotted quad is longer than 15 bytes and a zero pad byte
/// sorts below every text byte, as the end of a shorter string does, so
/// ordering keys orders rows exactly as std::string comparison would.
struct Row {
  std::uint64_t key_hi = 0;
  std::uint64_t key_lo = 0;
  double contacts = 0.0;
  std::uint8_t classification = 0;
  std::uint8_t intent = kNoLabel;
  std::uint8_t protocol = kNoLabel;
};

std::uint64_t big_endian(std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) return __builtin_bswap64(word);
  return word;
}

Row row_for(Ipv4 ip) {
  char text[16] = {};
  std::size_t len = 0;
  for (int i = 0; i < 4; ++i) {
    if (i != 0) text[len++] = '.';
    const unsigned octet = ip.octet(i);
    if (octet >= 100) text[len++] = static_cast<char>('0' + octet / 100);
    if (octet >= 10) text[len++] = static_cast<char>('0' + octet / 10 % 10);
    text[len++] = static_cast<char>('0' + octet % 10);
  }
  Row row;
  std::memcpy(&row.key_hi, text, 8);
  std::memcpy(&row.key_lo, text + 8, 8);
  row.key_hi = big_endian(row.key_hi);
  row.key_lo = big_endian(row.key_lo);
  return row;
}

std::string key_text(const Row& row) {
  char text[16];
  const std::uint64_t hi = big_endian(row.key_hi);
  const std::uint64_t lo = big_endian(row.key_lo);
  std::memcpy(text, &hi, 8);
  std::memcpy(text + 8, &lo, 8);
  return std::string(text, std::find(text, text + sizeof text, '\0'));
}

bool same_key(const Row& a, const Row& b) { return a.key_hi == b.key_hi && a.key_lo == b.key_lo; }

/// The month's assoc array from its rows: sorted by address text, rows of
/// one address summed (ephemeral draws can repeat an address), columns
/// in string order, and only the columns some row uses. Equal to
/// `AssocArray::from_triples` over the rows' exploded-schema triples.
d4m::AssocArray assemble(std::vector<Row>& rows) {
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.key_hi != b.key_hi ? a.key_hi < b.key_hi : a.key_lo < b.key_lo;
  });
  const ColumnOrder& order = column_order();
  std::vector<std::string> row_keys;
  std::vector<std::uint64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<double> val;
  row_keys.reserve(rows.size());
  row_ptr.reserve(rows.size() + 1);
  col_idx.reserve(4 * rows.size());
  val.reserve(4 * rows.size());
  std::uint32_t used = 0;  // bit per column rank
  for (std::size_t i = 0; i < rows.size();) {
    std::array<double, kColumns> sum{};
    std::uint32_t present = 0;
    const auto add = [&](std::size_t id, double v) {
      sum[order.rank[id]] += v;
      present |= 1u << order.rank[id];
    };
    std::size_t j = i;
    for (; j < rows.size() && same_key(rows[i], rows[j]); ++j) {
      const Row& r = rows[j];
      add(r.classification, 1.0);
      if (r.intent != kNoLabel) add(kIntentBase + r.intent, 1.0);
      if (r.protocol != kNoLabel) add(kProtocolBase + r.protocol, 1.0);
      add(kContacts, r.contacts);
    }
    row_keys.push_back(key_text(rows[i]));
    for (std::uint32_t rank = 0; rank < kColumns; ++rank) {
      if ((present >> rank & 1u) == 0) continue;
      col_idx.push_back(rank);
      val.push_back(sum[rank]);
    }
    row_ptr.push_back(col_idx.size());
    used |= present;
    i = j;
  }
  // Renumber the used columns densely; the order is unchanged.
  std::array<std::uint32_t, kColumns> dense{};
  std::vector<std::string> col_keys;
  for (std::uint32_t rank = 0; rank < kColumns; ++rank) {
    if ((used >> rank & 1u) == 0) continue;
    dense[rank] = static_cast<std::uint32_t>(col_keys.size());
    col_keys.push_back(order.sorted[rank]);
  }
  for (std::uint32_t& c : col_idx) c = dense[c];
  return d4m::AssocArray::from_csr(std::move(row_keys), std::move(col_keys), std::move(row_ptr),
                                   std::move(col_idx), std::move(val));
}

}  // namespace

Honeyfarm::Honeyfarm(const netgen::Population& population, netgen::VisibilityModel visibility,
                     std::uint64_t seed)
    : population_(population), visibility_(visibility), seed_(seed) {}

MonthlyObservation Honeyfarm::observe_month(const netgen::GreyNoiseMonthSpec& spec,
                                            int month_index) const {
  OBSCORR_REQUIRE(month_index >= 0, "month index must be non-negative");
  OBSCORR_REQUIRE(spec.coverage > 0.0, "coverage must be positive");
  OBSCORR_REQUIRE(spec.ephemeral_factor >= 0.0, "ephemeral_factor must be non-negative");

  MonthlyObservation obs;
  obs.month = spec.month;
  std::vector<Row> rows;

  // Ground-truth population sources: active this month AND detected.
  // One activity-row snapshot instead of a per-source `active` call: the
  // sweep is the hot loop, and month tasks run concurrently.
  const std::size_t n = population_.size();
  const std::vector<std::uint8_t> active_row = population_.activity_row(month_index);
  for (std::size_t i = 0; i < n; ++i) {
    if (active_row[i] == 0) continue;
    const double degree = population_.expected_active_degree(i);
    const double p = std::min(1.0, visibility_.probability(degree) * spec.coverage);
    // Per-(source, month) detection stream, independent of the activity
    // stream (0x500... base) and of evaluation order.
    Rng rng(seed_, std::uint64_t{0x500000000} + static_cast<std::uint64_t>(month_index) * n + i);
    if (!rng.bernoulli(p)) continue;

    Row row = row_for(population_.source(i).ip);
    // Deterministic per-source enrichment (stable across months, as a
    // scanner's behaviour profile would be).
    Rng enrich(seed_, std::uint64_t{0x600000000} + i);
    row.classification = static_cast<std::uint8_t>(enrich.uniform_u64(kClassifications.size()));
    row.intent = static_cast<std::uint8_t>(enrich.uniform_u64(kIntents.size()));
    row.protocol = static_cast<std::uint8_t>(enrich.uniform_u64(kProtocols.size()));
    // Monthly interaction count: the outpost converses over the whole
    // month, so counts scale with the source's rate.
    row.contacts = static_cast<double>(1 + rng.poisson(std::min(degree, 1e6) * 0.25));
    rows.push_back(row);
    ++obs.population_sources;
  }

  // Ephemeral one-month noise sources: random addresses outside the
  // persistent population, labelled unknown.
  const auto ephemeral_target =
      static_cast<std::uint64_t>(spec.ephemeral_factor * static_cast<double>(n));
  Rng eph_rng(seed_, std::uint64_t{0x700000000} + static_cast<std::uint64_t>(month_index));
  std::uint64_t made = 0;
  while (made < ephemeral_target) {
    const std::uint32_t candidate = eph_rng.next_u32();
    const std::uint32_t top = candidate >> 24;
    if (top == 0 || top == 10 || top == 77 || top == 127 || top >= 224) continue;
    const Ipv4 ip(candidate);
    if (population_.owns_ip(ip)) continue;
    Row row = row_for(ip);
    row.classification = kUnknown;
    row.contacts = 1.0;
    rows.push_back(row);
    ++made;
  }
  obs.ephemeral_sources = made;

  obs.sources = assemble(rows);
  return obs;
}

}  // namespace obscorr::honeyfarm
