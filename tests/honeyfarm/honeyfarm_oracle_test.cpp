/// Honeyfarm months against the string-triple assembly they replaced.
///
/// `observe_month` builds each month from integer-keyed rows straight
/// into CSR form, serially or on a pool; every pool size must give the
/// same month. The reference below is the original assembly: four
/// std::string triples per source through the generic
/// `AssocArray::from_triples`. Both run the same random draws, so every
/// month must come out equal as an assoc array. (18, 7) is in the list
/// on purpose: its ephemeral draws repeat addresses, which exercises
/// the duplicate-row summing that the golden archive's (12, 42) never
/// reaches.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/thread_pool.hpp"
#include "honeyfarm/honeyfarm.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"

namespace obscorr::honeyfarm {
namespace {

constexpr std::array<const char*, 3> kClassifications = {"malicious", "benign", "unknown"};
constexpr std::array<const char*, 4> kIntents = {"scan", "backscatter", "worm", "botnet-c2"};
constexpr std::array<const char*, 3> kProtocols = {"tcp", "udp", "icmp"};

/// The reference month: the original string-triple assembly. Counts
/// the ephemeral candidates the population owns into `owned_draws`.
MonthlyObservation reference_month(const netgen::Population& population,
                                   const netgen::VisibilityModel& visibility,
                                   std::uint64_t seed, const netgen::GreyNoiseMonthSpec& spec,
                                   int month_index, std::uint64_t& owned_draws) {
  MonthlyObservation obs;
  obs.month = spec.month;
  std::vector<d4m::Triple> triples;
  const std::size_t n = population.size();
  const std::vector<std::uint8_t> active_row = population.activity_row(month_index);
  for (std::size_t i = 0; i < n; ++i) {
    if (active_row[i] == 0) continue;
    const double degree = population.expected_active_degree(i);
    const double p = std::min(1.0, visibility.probability(degree) * spec.coverage);
    Rng rng(seed, std::uint64_t{0x500000000} + static_cast<std::uint64_t>(month_index) * n + i);
    if (!rng.bernoulli(p)) continue;
    const std::string ip = population.source(i).ip.to_string();
    Rng enrich(seed, std::uint64_t{0x600000000} + i);
    const auto& cls = kClassifications[enrich.uniform_u64(kClassifications.size())];
    const auto& intent = kIntents[enrich.uniform_u64(kIntents.size())];
    const auto& proto = kProtocols[enrich.uniform_u64(kProtocols.size())];
    const std::uint64_t contacts = 1 + rng.poisson(std::min(degree, 1e6) * 0.25);
    triples.push_back({ip, std::string("classification|") + cls, 1.0});
    triples.push_back({ip, std::string("intent|") + intent, 1.0});
    triples.push_back({ip, std::string("protocol|") + proto, 1.0});
    triples.push_back({ip, "contacts", static_cast<double>(contacts)});
    ++obs.population_sources;
  }
  const auto ephemeral_target =
      static_cast<std::uint64_t>(spec.ephemeral_factor * static_cast<double>(n));
  Rng eph_rng(seed, std::uint64_t{0x700000000} + static_cast<std::uint64_t>(month_index));
  std::uint64_t made = 0;
  while (made < ephemeral_target) {
    const std::uint32_t candidate = eph_rng.next_u32();
    const std::uint32_t top = candidate >> 24;
    if (top == 0 || top == 10 || top == 77 || top == 127 || top >= 224) continue;
    const Ipv4 ip(candidate);
    if (population.owns_ip(ip)) {
      ++owned_draws;
      continue;
    }
    const std::string key = ip.to_string();
    triples.push_back({key, "classification|unknown", 1.0});
    triples.push_back({key, "contacts", 1.0});
    ++made;
  }
  obs.ephemeral_sources = made;
  obs.sources = d4m::AssocArray::from_triples(std::move(triples));
  return obs;
}

/// How often the reference months met the two cases the integer
/// assembly handles apart: an ephemeral address drawn twice in a month
/// (one row counting both draws) and an ephemeral candidate the
/// population owns (rejected, then topped up with a fresh draw).
struct Tally {
  std::uint64_t repeated = 0;
  std::uint64_t owned_draws = 0;
};

/// Every month of `scenario` from `observe_month`, serial and on pools
/// of 1, 2, 4 and 7 threads, against the reference assembly.
Tally expect_every_month_matches(const netgen::Scenario& scenario) {
  const netgen::Population population(scenario.population);
  // The seed core::run_month gives the farm.
  const std::uint64_t seed = scenario.population.seed ^ 0x64E4015EULL;
  const Honeyfarm farm(population, scenario.visibility, seed);
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (const std::size_t threads : {1, 2, 4, 7}) pools.push_back(std::make_unique<ThreadPool>(threads));
  Tally tally;
  for (std::size_t m = 0; m < scenario.months.size(); ++m) {
    const int index = static_cast<int>(m);
    const MonthlyObservation want = reference_month(population, scenario.visibility, seed,
                                                    scenario.months[m], index, tally.owned_draws);
    std::vector<MonthlyObservation> got;
    got.push_back(farm.observe_month(scenario.months[m], index));
    for (const auto& pool : pools) got.push_back(farm.observe_month(scenario.months[m], index, *pool));
    for (std::size_t k = 0; k < got.size(); ++k) {
      const std::string where = "month " + std::to_string(m) + ", " +
                                (k == 0 ? std::string("serial")
                                        : std::to_string(pools[k - 1]->thread_count()) + " threads");
      EXPECT_EQ(got[k].month, want.month) << where;
      EXPECT_EQ(got[k].population_sources, want.population_sources) << where;
      EXPECT_EQ(got[k].ephemeral_sources, want.ephemeral_sources) << where;
      EXPECT_TRUE(got[k].sources == want.sources) << where;
    }
    tally.repeated += want.total_sources() - want.sources.row_keys().size();
  }
  return tally;
}

struct Scale {
  int log2_nv;
  std::uint64_t seed;
};

void PrintTo(const Scale& scale, std::ostream* os) {
  *os << "(log2-nv " << scale.log2_nv << ", seed " << scale.seed << ")";
}

class HoneyfarmOracleTest : public ::testing::TestWithParam<Scale> {};

TEST_P(HoneyfarmOracleTest, EveryMonthEqualsTheStringTripleAssembly) {
  const Tally tally =
      expect_every_month_matches(netgen::Scenario::paper(GetParam().log2_nv, GetParam().seed));
  if (GetParam().log2_nv == 18 && GetParam().seed == 7) {
    EXPECT_GT(tally.repeated, 0u) << "(18, 7) no longer repeats an ephemeral address";
  }
}

TEST(HoneyfarmEphemeralOracleTest, OwnedCandidatesAreReplacedByFreshDraws) {
  // A population 64x the paper's at this scale with 1/64 of its
  // ephemeral load: the draw count stays small while each candidate is
  // 64x likelier to hit a population address.
  netgen::Scenario scenario = netgen::Scenario::paper(12, 3);
  scenario.population.population <<= 6;
  for (netgen::GreyNoiseMonthSpec& month : scenario.months) month.ephemeral_factor /= 64.0;
  const Tally tally = expect_every_month_matches(scenario);
  EXPECT_GT(tally.owned_draws, 0u) << "no ephemeral candidate hit the population any more";
}

std::string scale_name(const ::testing::TestParamInfo<Scale>& param) {
  return "nv" + std::to_string(param.param.log2_nv) + "_seed" + std::to_string(param.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Scales, HoneyfarmOracleTest,
                         ::testing::Values(Scale{12, 42}, Scale{18, 7}, Scale{19, 1}), scale_name);

}  // namespace
}  // namespace obscorr::honeyfarm
