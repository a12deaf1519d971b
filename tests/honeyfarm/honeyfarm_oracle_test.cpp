/// Honeyfarm months against the string-triple assembly they replaced.
///
/// `observe_month` builds each month from integer-keyed rows straight
/// into CSR form. The reference below is the original assembly: four
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
#include <ostream>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "honeyfarm/honeyfarm.hpp"
#include "netgen/population.hpp"
#include "netgen/scenario.hpp"

namespace obscorr::honeyfarm {
namespace {

constexpr std::array<const char*, 3> kClassifications = {"malicious", "benign", "unknown"};
constexpr std::array<const char*, 4> kIntents = {"scan", "backscatter", "worm", "botnet-c2"};
constexpr std::array<const char*, 3> kProtocols = {"tcp", "udp", "icmp"};

/// The reference month: the original string-triple assembly.
MonthlyObservation reference_month(const netgen::Population& population,
                                   const netgen::VisibilityModel& visibility,
                                   std::uint64_t seed, const netgen::GreyNoiseMonthSpec& spec,
                                   int month_index) {
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
    if (population.owns_ip(ip)) continue;
    const std::string key = ip.to_string();
    triples.push_back({key, "classification|unknown", 1.0});
    triples.push_back({key, "contacts", 1.0});
    ++made;
  }
  obs.ephemeral_sources = made;
  obs.sources = d4m::AssocArray::from_triples(std::move(triples));
  return obs;
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
  const netgen::Scenario scenario = netgen::Scenario::paper(GetParam().log2_nv, GetParam().seed);
  const netgen::Population population(scenario.population);
  // The seed core::run_month gives the farm.
  const std::uint64_t seed = scenario.population.seed ^ 0x64E4015EULL;
  const Honeyfarm farm(population, scenario.visibility, seed);
  std::uint64_t repeated = 0;
  for (std::size_t m = 0; m < scenario.months.size(); ++m) {
    const int index = static_cast<int>(m);
    const MonthlyObservation got = farm.observe_month(scenario.months[m], index);
    const MonthlyObservation want =
        reference_month(population, scenario.visibility, seed, scenario.months[m], index);
    EXPECT_EQ(got.month, want.month) << "month " << m;
    EXPECT_EQ(got.population_sources, want.population_sources) << "month " << m;
    EXPECT_EQ(got.ephemeral_sources, want.ephemeral_sources) << "month " << m;
    EXPECT_TRUE(got.sources == want.sources) << "month " << m;
    repeated += want.total_sources() - want.sources.row_keys().size();
  }
  if (GetParam().log2_nv == 18 && GetParam().seed == 7) {
    EXPECT_GT(repeated, 0u) << "(18, 7) no longer repeats an ephemeral address";
  }
}

std::string scale_name(const ::testing::TestParamInfo<Scale>& param) {
  return "nv" + std::to_string(param.param.log2_nv) + "_seed" + std::to_string(param.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Scales, HoneyfarmOracleTest,
                         ::testing::Values(Scale{12, 42}, Scale{18, 7}, Scale{19, 1}), scale_name);

}  // namespace
}  // namespace obscorr::honeyfarm
