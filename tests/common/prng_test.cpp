#include "common/prng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

namespace obscorr {
namespace {

TEST(SplitMix64Test, KnownSequenceFromZeroSeed) {
  // Reference values from the published SplitMix64 algorithm (Vigna).
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next() == b.next();
  EXPECT_LT(equal, 2);
}

TEST(RngTest, StreamsAreIndependentOfConstructionOrder) {
  Rng s5_first(99, 5);
  Rng s3(99, 3);
  Rng s5_second(99, 5);
  EXPECT_EQ(s5_first.next(), s5_second.next());
  EXPECT_NE(s5_first.next(), s3.next());
}

TEST(RngTest, UniformInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformRangeRejectsInvertedBounds) {
  Rng rng(13);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(RngTest, UniformU64StaysBelowBound) {
  Rng rng(17);
  for (std::uint64_t n : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_u64(n), n);
  }
}

TEST(RngTest, UniformU64CoversSmallRangeUniformly) {
  Rng rng(19);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_u64(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, 500);
}

TEST(RngTest, UniformU64RejectsZeroBound) {
  Rng rng(17);
  EXPECT_THROW(rng.uniform_u64(0), std::invalid_argument);
}

TEST(RngTest, BernoulliEdgeProbabilities) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesProbability) {
  Rng rng(29);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialRejectsNonPositiveRate) {
  Rng rng(31);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(RngTest, BetaA1MomentsMatchClosedForm) {
  // E[X] = a/(a+1), E[X^k] = a/(a+k) for Beta(a, 1): this identity is the
  // mathematical heart of the drifting-beam persistence model.
  Rng rng(41);
  const double a = 4.0;
  const int n = 200000;
  double m1 = 0.0, m3 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.beta_a1(a);
    m1 += x;
    m3 += x * x * x;
  }
  EXPECT_NEAR(m1 / n, a / (a + 1.0), 0.005);
  EXPECT_NEAR(m3 / n, a / (a + 3.0), 0.005);
}

TEST(RngTest, BetaA1RejectsNonPositiveShape) {
  Rng rng(41);
  EXPECT_THROW(rng.beta_a1(0.0), std::invalid_argument);
}

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(RngTest, PoissonRejectsNegativeMean) {
  Rng rng(43);
  EXPECT_THROW(rng.poisson(-1.0), std::invalid_argument);
}

class PoissonMomentsTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMomentsTest, MeanAndVarianceMatchLambda) {
  const double lambda = GetParam();
  Rng rng(47);
  const int n = 100000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(rng.poisson(lambda));
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  const double tol = 4.0 * std::sqrt(lambda / n) + 0.01;
  EXPECT_NEAR(mean, lambda, tol * 2.0);
  EXPECT_NEAR(var, lambda, lambda * 0.05 + 0.05);
}

// Spans both sampler branches (Knuth < 30 <= PTRS).
INSTANTIATE_TEST_SUITE_P(SmallAndLargeMeans, PoissonMomentsTest,
                         ::testing::Values(0.1, 1.0, 5.0, 29.0, 31.0, 100.0, 1000.0));

// Honeyfarm months draw Poisson variates on several pool workers at once.
// The PTRS branch needs ln Γ; std::lgamma writes the global `signgam`, a
// data race under ThreadSanitizer, so the sampler must use a reentrant
// form that returns the same values.
std::vector<std::uint64_t> poisson_draws(std::uint64_t stream, double lambda, int n) {
  Rng rng(61, stream);
  std::vector<std::uint64_t> draws(static_cast<std::size_t>(n));
  for (auto& d : draws) d = rng.poisson(lambda);
  return draws;
}

TEST(RngPoissonThreadsTest, ConcurrentDrawsMatchSerialDraws) {
  constexpr int kThreads = 4;
  constexpr int kDraws = 20000;
  std::vector<std::vector<std::uint64_t>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      concurrent[static_cast<std::size_t>(t)] =
          poisson_draws(static_cast<std::uint64_t>(t), 100.0 + t, kDraws);
    });
  }
  for (auto& th : threads) th.join();
  std::uint64_t total = 0;
  for (int t = 0; t < kThreads; ++t) {
    const auto serial = poisson_draws(static_cast<std::uint64_t>(t), 100.0 + t, kDraws);
    EXPECT_EQ(concurrent[static_cast<std::size_t>(t)], serial) << "stream " << t;
    for (const std::uint64_t d : serial) total += d;
  }
  // Pinned from the std::lgamma sampler: the reentrant ln Γ changes no draw.
  EXPECT_EQ(total, 8120671u);
}

TEST(AliasTableTest, SingleOutcomeAlwaysSampled) {
  const std::vector<double> w{3.0};
  AliasTable table(w);
  Rng rng(53);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightOutcomeNeverSampled) {
  const std::vector<double> w{1.0, 0.0, 1.0};
  AliasTable table(w);
  Rng rng(59);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(table.sample(rng), 1u);
}

TEST(AliasTableTest, FrequenciesMatchWeights) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable table(w);
  Rng rng(61);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[table.sample(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, w[i] / 10.0, 0.01) << "outcome " << i;
  }
}

TEST(AliasTableTest, HeavyTailWeightsSampleHeadOften) {
  // Zipf-like weights: the head must dominate, as in the traffic model.
  std::vector<double> w(1000);
  for (std::size_t r = 0; r < w.size(); ++r) w[r] = 1.0 / static_cast<double>((r + 1) * (r + 1));
  AliasTable table(w);
  Rng rng(67);
  int head = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) head += table.sample(rng) == 0;
  EXPECT_NEAR(static_cast<double>(head) / n, 1.0 / 1.6449, 0.02);  // 1/zeta(2)
}

TEST(AliasTableTest, RejectsEmptyAndInvalidWeights) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -0.5}), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr
