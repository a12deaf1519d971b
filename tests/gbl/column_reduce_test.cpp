/// Column reductions sort (col << 32 | entry) keys with the radix kernel
/// and fold sums and counts in one pass. These tests hold them to a
/// `std::sort` oracle over (col, entry) pairs — which fixes each column's
/// summation order to storage order — on edge-shaped and random matrices,
/// at the active SIMD tier and at the scalar tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "common/prng.hpp"
#include "common/simd.hpp"
#include "gbl/dcsr.hpp"
#include "gbl/quantities.hpp"

namespace obscorr::gbl {
namespace {

struct OracleColumns {
  SparseVec sums;
  SparseVec counts;
};

OracleColumns oracle_columns(const DcsrMatrix& a) {
  std::vector<std::pair<Index, std::size_t>> order;
  for (std::size_t k = 0; k < a.nnz(); ++k) order.emplace_back(a.col()[k], k);
  std::sort(order.begin(), order.end());
  std::vector<Index> idx;
  std::vector<Value> sums;
  std::vector<Value> counts;
  for (const auto& [c, k] : order) {
    if (idx.empty() || idx.back() != c) {
      idx.push_back(c);
      sums.push_back(a.val()[k]);
      counts.push_back(1.0);
    } else {
      sums.back() += a.val()[k];
      counts.back() += 1.0;
    }
  }
  return {SparseVec(idx, std::move(sums)), SparseVec(idx, std::move(counts))};
}

bool same_bits(const SparseVec& a, const SparseVec& b) {
  return a.indices().size() == b.indices().size() &&
         std::equal(a.indices().begin(), a.indices().end(), b.indices().begin()) &&
         (a.nnz() == 0 || std::memcmp(a.values().data(), b.values().data(),
                                      a.nnz() * sizeof(Value)) == 0);
}

void expect_matches_oracle(const DcsrMatrix& a) {
  const OracleColumns want = oracle_columns(a);
  EXPECT_TRUE(same_bits(a.reduce_cols(), want.sums));
  EXPECT_TRUE(same_bits(a.reduce_cols_pattern(), want.counts));
  const auto [sums, counts] = a.reduce_cols_and_pattern();
  EXPECT_TRUE(same_bits(sums, want.sums));
  EXPECT_TRUE(same_bits(counts, want.counts));
  EXPECT_EQ(a.nonempty_cols(), want.sums.nnz());

  const AggregateQuantities q = aggregate_quantities(a);
  EXPECT_EQ(q.unique_destinations, want.sums.nnz());
  EXPECT_EQ(q.max_destination_packets, want.sums.reduce_max());
  EXPECT_EQ(q.max_destination_fanin, want.counts.reduce_max());
  const EntityQuantities e = entity_quantities(a);
  EXPECT_TRUE(same_bits(e.destination_packets, want.sums));
  EXPECT_TRUE(same_bits(e.destination_fanin, want.counts));
}

DcsrMatrix random_matrix(std::uint64_t seed, std::size_t n, std::uint64_t rows,
                         std::uint64_t cols, bool fractional) {
  Rng rng(seed);
  std::vector<Tuple> tuples;
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<Index>(rng.uniform_u64(rows));
    const auto c = static_cast<Index>(0xFFFFFFFFull - rng.uniform_u64(cols));
    const Value v = fractional ? rng.uniform(-1.0, 1.0) * 1e3
                               : static_cast<Value>(1 + rng.uniform_u64(50));
    tuples.push_back({r, c, v});
  }
  return DcsrMatrix::from_tuples(std::move(tuples));
}

class ColumnReduceTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) simd::set_tier(simd::Tier::kScalar);
  }
  void TearDown() override { simd::set_tier(std::nullopt); }
};

TEST_P(ColumnReduceTest, EmptyMatrix) {
  const DcsrMatrix empty;
  expect_matches_oracle(empty);
  EXPECT_EQ(empty.reduce_cols().nnz(), 0u);
}

TEST_P(ColumnReduceTest, OneColumnAndTheTopColumnId) {
  expect_matches_oracle(DcsrMatrix::from_tuples({{0, 5, 2.0}, {3, 5, 7.0}, {9, 5, 1.0}}));
  const DcsrMatrix top =
      DcsrMatrix::from_tuples({{1, 0xFFFFFFFFu, 3.0}, {2, 0, 4.0}, {7, 0xFFFFFFFFu, 0.5}});
  expect_matches_oracle(top);
  EXPECT_EQ(top.reduce_cols().indices().back(), 0xFFFFFFFFu);
  EXPECT_EQ(top.reduce_cols().values().back(), 3.5);
}

TEST_P(ColumnReduceTest, ManyColumnsIntegerAndFractionalValues) {
  expect_matches_oracle(random_matrix(11, 200000, 1u << 20, 4096, false));
  expect_matches_oracle(random_matrix(12, 50000, 1u << 30, 1u << 31, false));
  // Fractional values: the sum order is part of the contract.
  expect_matches_oracle(random_matrix(13, 100000, 5000, 300, true));
}

INSTANTIATE_TEST_SUITE_P(AutoAndScalar, ColumnReduceTest, ::testing::Values(false, true));

}  // namespace
}  // namespace obscorr::gbl
