/// The element-wise D4M ops merge CSR rows over remapped column keys. The
/// reference they must match exactly is the string-triple merge they
/// replaced, kept here as the oracle: export both operands as sorted
/// triples, merge, rebuild with `from_triples`.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "d4m/assoc.hpp"
#include "honeyfarm/database.hpp"

namespace obscorr::d4m {
namespace {

enum class Op { kAdd, kMult, kMax };

AssocArray oracle_merge(const AssocArray& a, const AssocArray& b, Op op) {
  const auto less = [](const Triple& x, const Triple& y) {
    return x.row != y.row ? x.row < y.row : x.col < y.col;
  };
  const auto combine = [op](double x, double y) {
    return op == Op::kAdd ? x + y : op == Op::kMult ? x * y : std::max(x, y);
  };
  const bool intersect = op == Op::kMult;
  const auto ta = a.to_triples();
  const auto tb = b.to_triples();
  std::vector<Triple> out;
  std::size_t i = 0, j = 0;
  while (i < ta.size() && j < tb.size()) {
    if (ta[i].row == tb[j].row && ta[i].col == tb[j].col) {
      out.push_back({ta[i].row, ta[i].col, combine(ta[i].val, tb[j].val)});
      ++i;
      ++j;
    } else if (less(ta[i], tb[j])) {
      if (!intersect) out.push_back(ta[i]);
      ++i;
    } else {
      if (!intersect) out.push_back(tb[j]);
      ++j;
    }
  }
  if (!intersect) {
    out.insert(out.end(), ta.begin() + static_cast<std::ptrdiff_t>(i), ta.end());
    out.insert(out.end(), tb.begin() + static_cast<std::ptrdiff_t>(j), tb.end());
  }
  return AssocArray::from_triples(std::move(out));
}

void expect_all_ops_match(const AssocArray& a, const AssocArray& b) {
  EXPECT_EQ(AssocArray::ewise_add(a, b), oracle_merge(a, b, Op::kAdd));
  EXPECT_EQ(AssocArray::ewise_mult(a, b), oracle_merge(a, b, Op::kMult));
  EXPECT_EQ(AssocArray::ewise_max(a, b), oracle_merge(a, b, Op::kMax));
  EXPECT_EQ(AssocArray::ewise_add(b, a), oracle_merge(b, a, Op::kAdd));
  EXPECT_EQ(AssocArray::ewise_mult(b, a), oracle_merge(b, a, Op::kMult));
  EXPECT_EQ(AssocArray::ewise_max(b, a), oracle_merge(b, a, Op::kMax));
}

/// Random array over small key alphabets (so operands overlap), with
/// the empty string among the row and column keys.
AssocArray random_assoc(Rng& rng, std::size_t n, std::size_t rows, std::size_t cols) {
  std::vector<Triple> triples;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t r = rng.uniform_u64(rows);
    const std::uint64_t c = rng.uniform_u64(cols);
    triples.push_back({r == 0 ? "" : "10.0." + std::to_string(r), c == 0 ? "" : "c" + std::to_string(c),
                       static_cast<double>(rng.uniform_u64(9)) - 4.0});
  }
  return AssocArray::from_triples(std::move(triples));
}

TEST(AssocMergeTest, EmptyOperands) {
  const AssocArray empty;
  const AssocArray a = AssocArray::from_triples({{"1.2.3.4", "seen", 1.0}, {"", "", 2.0}});
  expect_all_ops_match(empty, empty);
  expect_all_ops_match(a, empty);
  EXPECT_TRUE(AssocArray::ewise_mult(a, empty).empty());
  EXPECT_EQ(AssocArray::ewise_add(empty, a), a);
}

TEST(AssocMergeTest, DisjointAndIdenticalKeys) {
  const AssocArray a = AssocArray::from_triples({{"a", "x", 1.0}, {"b", "y", 2.0}});
  const AssocArray rows_apart = AssocArray::from_triples({{"c", "x", 3.0}, {"d", "y", 4.0}});
  const AssocArray cols_apart = AssocArray::from_triples({{"a", "z", 3.0}, {"b", "w", 4.0}});
  expect_all_ops_match(a, rows_apart);
  expect_all_ops_match(a, cols_apart);
  expect_all_ops_match(a, a);
  // Shared rows with disjoint columns intersect to nothing: no row and
  // no column key survives.
  const AssocArray none = AssocArray::ewise_mult(a, cols_apart);
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.row_keys().empty());
  EXPECT_TRUE(none.col_keys().empty());
}

TEST(AssocMergeTest, IntersectionDropsUnusedColumnKeys) {
  const AssocArray a = AssocArray::from_triples({{"a", "x", 2.0}, {"a", "y", 1.0}, {"b", "z", 5.0}});
  const AssocArray b = AssocArray::from_triples({{"a", "y", 3.0}, {"b", "w", 1.0}});
  const AssocArray both = AssocArray::ewise_mult(a, b);
  ASSERT_EQ(both.col_keys().size(), 1u);
  EXPECT_EQ(both.col_keys()[0], "y");
  EXPECT_EQ(both.at("a", "y"), 3.0);
  expect_all_ops_match(a, b);
}

TEST(AssocMergeTest, RandomOverlappingOperands) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    SCOPED_TRACE(trial);
    const std::size_t rows = 1 + rng.uniform_u64(40);
    const std::size_t cols = 1 + rng.uniform_u64(6);
    expect_all_ops_match(random_assoc(rng, rng.uniform_u64(120), rows, cols),
                         random_assoc(rng, rng.uniform_u64(120), rows, cols));
  }
}

TEST(AssocMergeTest, DatabaseFoldMatchesTripleMergeFold) {
  // The honeyfarm database folds every month through ewise_add/ewise_max;
  // rebuild its months_seen / peak_contacts with the oracle and compare
  // what lookups return.
  Rng rng(5);
  std::vector<honeyfarm::MonthlyObservation> months;
  AssocArray seen_want;
  AssocArray peak_want;
  for (int m = 0; m < 6; ++m) {
    std::vector<Triple> triples;
    for (int i = 0; i < 60; ++i) {
      const std::string ip = "10.0.0." + std::to_string(rng.uniform_u64(80));
      triples.push_back({ip, "contacts", static_cast<double>(1 + rng.uniform_u64(30))});
      triples.push_back({ip, "classification|malicious", 1.0});
    }
    honeyfarm::MonthlyObservation obs;
    obs.month = YearMonth(2020, 1 + m);
    obs.sources = AssocArray::from_triples(std::move(triples));
    seen_want = oracle_merge(seen_want, obs.sources.logical().row_sum().logical(), Op::kAdd);
    const std::vector<std::string> contacts{"contacts"};
    peak_want = oracle_merge(peak_want, obs.sources.select_cols(contacts), Op::kMax);
    months.push_back(std::move(obs));
  }
  const honeyfarm::Database db(months);
  EXPECT_EQ(db.distinct_sources(), seen_want.row_keys().size());
  for (const std::string& ip : seen_want.row_keys()) {
    const auto profile = db.lookup(ip);
    ASSERT_TRUE(profile.has_value()) << ip;
    EXPECT_EQ(profile->months_seen, static_cast<int>(seen_want.at(ip, "sum"))) << ip;
    EXPECT_EQ(profile->peak_contacts, peak_want.at(ip, "contacts")) << ip;
  }
  EXPECT_FALSE(db.lookup("192.0.2.1").has_value());
}

}  // namespace
}  // namespace obscorr::d4m
