#include "honeyfarm/honeyfarm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/ipv4.hpp"
#include "common/prng.hpp"
#include "gbl/kernels.hpp"
#include "obs/span.hpp"

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

/// parallel_for on `pool`, or the whole range on the caller without one.
template <typename Body>
void for_ranges(ThreadPool* pool, std::size_t begin, std::size_t end, const Body& body) {
  if (pool != nullptr) {
    parallel_for(*pool, begin, end, body);
  } else if (begin < end) {
    body(begin, end);
  }
}

/// One detected population source before assembly: its address's
/// text-order key (common/ipv4.hpp), its labels (vocabulary indices) and
/// its contact count. Population addresses are unique, so are their keys.
struct Row {
  std::uint32_t key = 0;
  std::uint8_t classification = 0;
  std::uint8_t intent = kNoLabel;
  std::uint8_t protocol = kNoLabel;
  double contacts = 0.0;
};

/// A row's entries by column rank: the value at each rank and the bit
/// set of ranks present.
struct RowEntries {
  std::array<double, kColumns> value{};
  std::uint32_t present = 0;
};

RowEntries entries_of(const Row& r, const ColumnOrder& order) {
  RowEntries out;
  const auto put = [&](std::size_t id, double v) {
    out.value[order.rank[id]] = v;
    out.present |= 1u << order.rank[id];
  };
  put(r.classification, 1.0);
  if (r.intent != kNoLabel) put(kIntentBase + r.intent, 1.0);
  if (r.protocol != kNoLabel) put(kProtocolBase + r.protocol, 1.0);
  put(kContacts, r.contacts);
  return out;
}

/// The month's assoc array from two sorted streams with disjoint keys:
/// the detected population rows (unique keys) and the distinct
/// ephemeral keys with the number of draws of each, which become one
/// `unknown` row whose entries count the draws. Rows come out in
/// address-text order, columns in string order, only the columns some
/// row uses: equal to `AssocArray::from_triples` over the rows'
/// exploded-schema triples. Each row's place and entry offset follow
/// from the two streams, so the CSR arrays are filled as pool tasks.
d4m::AssocArray assemble(const std::vector<Row>& rows, const std::vector<std::uint64_t>& eph_keys,
                         const std::vector<std::uint32_t>& eph_draws, ThreadPool* pool) {
  const ColumnOrder& order = column_order();
  const std::size_t n_pop = rows.size();
  const std::size_t n_eph = eph_keys.size();
  const std::uint32_t eph_lo = std::min(order.rank[kUnknown], order.rank[kContacts]);
  const std::uint32_t eph_hi = std::max(order.rank[kUnknown], order.rank[kContacts]);

  // Entries before population row p, and the columns in use.
  std::vector<std::uint64_t> pop_nnz_before(n_pop + 1, 0);
  std::uint32_t used = n_eph != 0 ? (1u << eph_lo | 1u << eph_hi) : 0;  // bit per column rank
  for (std::size_t p = 0; p < n_pop; ++p) {
    const std::uint32_t present = entries_of(rows[p], order).present;
    pop_nnz_before[p + 1] = pop_nnz_before[p] + static_cast<std::uint64_t>(std::popcount(present));
    used |= present;
  }
  // Renumber the used columns densely; the order is unchanged.
  std::array<std::uint32_t, kColumns> dense{};
  std::vector<std::string> col_keys;
  for (std::uint32_t rank = 0; rank < kColumns; ++rank) {
    if ((used >> rank & 1u) == 0) continue;
    dense[rank] = static_cast<std::uint32_t>(col_keys.size());
    col_keys.push_back(order.sorted[rank]);
  }

  const std::uint64_t nnz = pop_nnz_before[n_pop] + 2 * std::uint64_t{n_eph};
  std::vector<std::string> row_keys(n_pop + n_eph);
  std::vector<std::uint64_t> row_ptr(n_pop + n_eph + 1);
  std::vector<std::uint32_t> col_idx(nnz);
  std::vector<double> val(nnz);
  row_ptr.back() = nnz;
  const auto pop_key_less = [](const Row& r, std::uint64_t key) { return r.key < key; };

  // Population row p lands after the ephemeral keys below its own.
  for_ranges(pool, 0, n_pop, [&](std::size_t b, std::size_t e) {
    for (std::size_t p = b; p < e; ++p) {
      const auto eph_before = static_cast<std::uint64_t>(
          std::lower_bound(eph_keys.begin(), eph_keys.end(), rows[p].key) - eph_keys.begin());
      const std::size_t q = p + eph_before;
      std::uint64_t at = pop_nnz_before[p] + 2 * eph_before;
      row_keys[q] = from_text_order_key(rows[p].key).to_string();
      row_ptr[q] = at;
      const RowEntries entries = entries_of(rows[p], order);
      for (std::uint32_t rank = 0; rank < kColumns; ++rank) {
        if ((entries.present >> rank & 1u) == 0) continue;
        col_idx[at] = dense[rank];
        val[at++] = entries.value[rank];
      }
    }
  });
  // Ephemeral key j lands after the population rows below it.
  for_ranges(pool, 0, n_eph, [&](std::size_t b, std::size_t e) {
    std::size_t pop_before = static_cast<std::size_t>(
        std::lower_bound(rows.begin(), rows.end(), eph_keys[b], pop_key_less) - rows.begin());
    for (std::size_t j = b; j < e; ++j) {
      while (pop_before < n_pop && rows[pop_before].key < eph_keys[j]) ++pop_before;
      const std::size_t q = j + pop_before;
      const std::uint64_t at = pop_nnz_before[pop_before] + 2 * std::uint64_t{j};
      row_keys[q] = from_text_order_key(static_cast<std::uint32_t>(eph_keys[j])).to_string();
      row_ptr[q] = at;
      col_idx[at] = dense[eph_lo];
      col_idx[at + 1] = dense[eph_hi];
      val[at] = val[at + 1] = static_cast<double>(eph_draws[j]);
    }
  });
  return d4m::AssocArray::from_csr(std::move(row_keys), std::move(col_keys), std::move(row_ptr),
                                   std::move(col_idx), std::move(val));
}

bool reserved_top(std::uint32_t address) {
  const std::uint32_t top = address >> 24;
  return top == 0 || top == 10 || top == 77 || top == 127 || top >= 224;
}

}  // namespace

Honeyfarm::Honeyfarm(const netgen::Population& population, netgen::VisibilityModel visibility,
                     std::uint64_t seed)
    : population_(population), visibility_(visibility), seed_(seed) {}

MonthlyObservation Honeyfarm::observe_month(const netgen::GreyNoiseMonthSpec& spec,
                                            int month_index, ThreadPool& pool) const {
  const obs::Span span("study.month", [&] { return std::to_string(month_index); });
  return observe(spec, month_index, &pool);
}

MonthlyObservation Honeyfarm::observe_month(const netgen::GreyNoiseMonthSpec& spec,
                                            int month_index) const {
  return observe(spec, month_index, nullptr);
}

MonthlyObservation Honeyfarm::observe(const netgen::GreyNoiseMonthSpec& spec, int month_index,
                                      ThreadPool* pool) const {
  OBSCORR_REQUIRE(month_index >= 0, "month index must be non-negative");
  OBSCORR_REQUIRE(spec.coverage > 0.0, "coverage must be positive");
  OBSCORR_REQUIRE(spec.ephemeral_factor >= 0.0, "ephemeral_factor must be non-negative");

  MonthlyObservation obs;
  obs.month = spec.month;

  // Ground-truth population sources: active this month AND detected.
  // One activity-row snapshot instead of a per-source `active` call.
  // Source ranges run as tasks into their own slots, concatenated in
  // source order: every draw below comes from a stream of its own
  // source, so no result depends on which task visits it.
  const std::size_t n = population_.size();
  const std::vector<std::uint8_t> active_row = population_.activity_row(month_index);
  constexpr std::size_t kSourcesPerTask = 2048;
  std::vector<std::vector<Row>> parts((n + kSourcesPerTask - 1) / kSourcesPerTask);
  for_ranges(pool, 0, parts.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t t = b; t < e; ++t) {
      for (std::size_t i = t * kSourcesPerTask; i < std::min(n, (t + 1) * kSourcesPerTask); ++i) {
        if (active_row[i] == 0) continue;
        const double degree = population_.expected_active_degree(i);
        const double p = std::min(1.0, visibility_.probability(degree) * spec.coverage);
        // Per-(source, month) detection stream, independent of the
        // activity stream (0x500... base) and of evaluation order.
        Rng rng(seed_,
                std::uint64_t{0x500000000} + static_cast<std::uint64_t>(month_index) * n + i);
        if (!rng.bernoulli(p)) continue;

        Row row;
        row.key = text_order_key(population_.source(i).ip);
        // Deterministic per-source enrichment (stable across months, as a
        // scanner's behaviour profile would be).
        Rng enrich(seed_, std::uint64_t{0x600000000} + i);
        row.classification =
            static_cast<std::uint8_t>(enrich.uniform_u64(kClassifications.size()));
        row.intent = static_cast<std::uint8_t>(enrich.uniform_u64(kIntents.size()));
        row.protocol = static_cast<std::uint8_t>(enrich.uniform_u64(kProtocols.size()));
        // Monthly interaction count: the outpost converses over the whole
        // month, so counts scale with the source's rate.
        row.contacts = static_cast<double>(1 + rng.poisson(std::min(degree, 1e6) * 0.25));
        parts[t].push_back(row);
      }
    }
  });
  std::vector<Row> rows;
  for (const std::vector<Row>& part : parts) rows.insert(rows.end(), part.begin(), part.end());
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.key < b.key; });
  obs.population_sources = rows.size();

  // Ephemeral one-month noise sources: random addresses outside the
  // persistent population, labelled unknown. They come from one draw
  // stream per month, so the draws stay serial: draw the still-missing
  // number of candidates, check their ownership as tasks, keep the
  // accepted ones and draw again for the rejects. That keeps exactly the
  // first `target` accepted candidates, as a draw-check-accept loop does.
  const auto target = static_cast<std::size_t>(spec.ephemeral_factor * static_cast<double>(n));
  constexpr std::uint64_t kOwned = ~std::uint64_t{0};
  Rng eph_rng(seed_, std::uint64_t{0x700000000} + static_cast<std::uint64_t>(month_index));
  std::vector<std::uint64_t> keys(target);
  std::size_t made = 0;
  while (made < target) {
    for (std::size_t k = made; k < target; ++k) {
      std::uint32_t candidate = eph_rng.next_u32();
      while (reserved_top(candidate)) candidate = eph_rng.next_u32();
      keys[k] = candidate;
    }
    for_ranges(pool, made, target, [&](std::size_t b, std::size_t e) {
      for (std::size_t k = b; k < e; ++k) {
        const Ipv4 ip(static_cast<std::uint32_t>(keys[k]));
        keys[k] = population_.owns_ip(ip) ? kOwned : text_order_key(ip);
      }
    });
    made = static_cast<std::size_t>(
        std::remove(keys.begin() + static_cast<std::ptrdiff_t>(made), keys.end(), kOwned) -
        keys.begin());
  }
  obs.ephemeral_sources = made;

  // Draws can repeat an address: sort the keys and collapse each run.
  gbl::kernels::radix_sort_u64(keys.data(), keys.size(), mem::scratch_arena());
  std::vector<std::uint32_t> draws;
  std::size_t distinct = 0;
  for (std::size_t k = 0; k < keys.size();) {
    std::size_t end = k + 1;
    while (end < keys.size() && keys[end] == keys[k]) ++end;
    keys[distinct++] = keys[k];
    draws.push_back(static_cast<std::uint32_t>(end - k));
    k = end;
  }
  keys.resize(distinct);

  obs.sources = assemble(rows, keys, draws, pool);
  return obs;
}

}  // namespace obscorr::honeyfarm
