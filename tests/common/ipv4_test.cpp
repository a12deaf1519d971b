#include "common/ipv4.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/prng.hpp"

namespace obscorr {
namespace {

TEST(Ipv4Test, TextOrderKeysOrderAsDottedQuadText) {
  // Octets at every text-length boundary, in every position, plus
  // random addresses: integer order of the keys must be std::string
  // order of the texts, and every key must map back to its address.
  std::vector<Ipv4> ips;
  const std::vector<std::uint8_t> edges = {0, 1, 9, 10, 99, 100, 199, 200, 255};
  for (const std::uint8_t a : edges) {
    for (const std::uint8_t b : edges) {
      ips.emplace_back(a, b, edges[(a + b) % edges.size()], b);
      ips.emplace_back(b, 2, a, edges[(a * 7 + b) % edges.size()]);
    }
  }
  Rng rng(2022, 16);
  for (int i = 0; i < 2000; ++i) ips.emplace_back(rng.next_u32());
  for (const Ipv4 ip : ips) {
    EXPECT_EQ(from_text_order_key(text_order_key(ip)), ip) << ip.to_string();
  }
  for (std::size_t i = 0; i < ips.size(); ++i) {
    for (std::size_t j = i % 97; j < ips.size(); j += 97) {
      const std::string a = ips[i].to_string();
      const std::string b = ips[j].to_string();
      EXPECT_EQ(text_order_key(ips[i]) < text_order_key(ips[j]), a < b) << a << " vs " << b;
      EXPECT_EQ(text_order_key(ips[i]) == text_order_key(ips[j]), a == b) << a << " vs " << b;
    }
  }
}

TEST(Ipv4Test, PaperExampleValue) {
  // The paper's matrix-index example: 1.1.1.1 -> 16843009.
  EXPECT_EQ(Ipv4(1, 1, 1, 1).value(), 16843009u);
  EXPECT_EQ(Ipv4(2, 2, 2, 2).value(), 33686018u);
}

TEST(Ipv4Test, OctetExtraction) {
  const Ipv4 ip(192, 168, 1, 42);
  EXPECT_EQ(ip.octet(0), 192);
  EXPECT_EQ(ip.octet(1), 168);
  EXPECT_EQ(ip.octet(2), 1);
  EXPECT_EQ(ip.octet(3), 42);
}

TEST(Ipv4Test, ToStringRoundTrip) {
  for (std::uint32_t v : {0u, 1u, 16843009u, 0xFFFFFFFFu, 0x7F000001u}) {
    const Ipv4 ip(v);
    const auto parsed = Ipv4::parse(ip.to_string());
    ASSERT_TRUE(parsed.has_value()) << ip.to_string();
    EXPECT_EQ(parsed->value(), v);
  }
}

TEST(Ipv4Test, ParseValidAddresses) {
  EXPECT_EQ(Ipv4::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
  EXPECT_EQ(Ipv4::parse("10.0.0.1")->value(), 0x0A000001u);
}

TEST(Ipv4Test, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Ipv4::parse("").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4::parse("256.1.1.1").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.x").has_value());
  EXPECT_FALSE(Ipv4::parse("1..2.3").has_value());
  EXPECT_FALSE(Ipv4::parse(" 1.2.3.4").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4 ").has_value());
  EXPECT_FALSE(Ipv4::parse("01.2.3.4").has_value());  // ambiguous leading zero
  EXPECT_FALSE(Ipv4::parse("-1.2.3.4").has_value());
}

TEST(Ipv4Test, OrderingFollowsNumericValue) {
  EXPECT_LT(Ipv4(1, 0, 0, 0), Ipv4(2, 0, 0, 0));
  EXPECT_LT(Ipv4(1, 0, 0, 255), Ipv4(1, 0, 1, 0));
  EXPECT_EQ(Ipv4(9, 9, 9, 9), Ipv4(9, 9, 9, 9));
}

TEST(Ipv4PrefixTest, MasksHostBits) {
  const Ipv4Prefix p(Ipv4(77, 200, 3, 4), 8);
  EXPECT_EQ(p.base(), Ipv4(77, 0, 0, 0));
  EXPECT_EQ(p.length(), 8);
}

TEST(Ipv4PrefixTest, SizeByLength) {
  EXPECT_EQ(Ipv4Prefix(Ipv4(0u), 0).size(), 1ULL << 32);
  EXPECT_EQ(Ipv4Prefix(Ipv4(77, 0, 0, 0), 8).size(), 1ULL << 24);
  EXPECT_EQ(Ipv4Prefix(Ipv4(77, 1, 0, 0), 16).size(), 1ULL << 16);
  EXPECT_EQ(Ipv4Prefix(Ipv4(77, 1, 2, 3), 32).size(), 1u);
}

TEST(Ipv4PrefixTest, ContainsMembership) {
  const Ipv4Prefix dark(Ipv4(77, 0, 0, 0), 8);
  EXPECT_TRUE(dark.contains(Ipv4(77, 0, 0, 0)));
  EXPECT_TRUE(dark.contains(Ipv4(77, 255, 255, 255)));
  EXPECT_FALSE(dark.contains(Ipv4(78, 0, 0, 0)));
  EXPECT_FALSE(dark.contains(Ipv4(76, 255, 255, 255)));
}

TEST(Ipv4PrefixTest, ZeroLengthContainsEverything) {
  const Ipv4Prefix all(Ipv4(0u), 0);
  EXPECT_TRUE(all.contains(Ipv4(0u)));
  EXPECT_TRUE(all.contains(Ipv4(0xFFFFFFFFu)));
}

TEST(Ipv4PrefixTest, AtEnumeratesAddresses) {
  const Ipv4Prefix p(Ipv4(10, 0, 0, 0), 30);
  EXPECT_EQ(p.size(), 4u);
  EXPECT_EQ(p.at(0), Ipv4(10, 0, 0, 0));
  EXPECT_EQ(p.at(3), Ipv4(10, 0, 0, 3));
  EXPECT_THROW(p.at(4), std::invalid_argument);
}

TEST(Ipv4PrefixTest, ParseRoundTrip) {
  const auto p = Ipv4Prefix::parse("77.0.0.0/8");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "77.0.0.0/8");
  EXPECT_FALSE(Ipv4Prefix::parse("77.0.0.0").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("77.0.0.0/33").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("77.0.0.0/-1").has_value());
  EXPECT_FALSE(Ipv4Prefix::parse("x/8").has_value());
}

TEST(Ipv4PrefixTest, RejectsInvalidLength) {
  EXPECT_THROW(Ipv4Prefix(Ipv4(0u), -1), std::invalid_argument);
  EXPECT_THROW(Ipv4Prefix(Ipv4(0u), 33), std::invalid_argument);
}

}  // namespace
}  // namespace obscorr
