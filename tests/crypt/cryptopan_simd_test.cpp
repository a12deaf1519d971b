/// AES-NI CryptoPAN against the FIPS-197 software cipher, byte for byte:
/// the AES known-answer vectors through both paths, ~10^5 random
/// addresses under several keys (the telescope's derived key among
/// them), and the dispatch itself — a forced scalar tier must run the
/// software path, which the per-anonymize dispatch counter shows.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/prng.hpp"
#include "common/simd.hpp"
#include "crypt/aes128.hpp"
#include "crypt/cryptopan.hpp"
#include "obs/telemetry.hpp"

namespace obscorr::crypt {
namespace {

/// Restores auto dispatch and telemetry whatever a test does to them.
class CryptoPanSimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::set_tier(std::nullopt);
    obs::set_level(obs::Level::kOff);
    obs::reset();
  }

  /// Forces the host's highest tier (overriding any OBSCORR_SIMD cap) and
  /// reports whether AES-NI then runs.
  static bool force_aesni() {
    simd::set_tier(simd::detected_tier());
    return simd::use_aesni();
  }
};

Aes128::Block hex_block(const char* hex) {
  Aes128::Block b{};
  const auto nibble = [](char c) {
    return static_cast<std::uint8_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  };
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) | nibble(hex[2 * i + 1]));
  }
  return b;
}

TEST_F(CryptoPanSimdTest, KnownAnswerVectorsThroughBothPaths) {
  if (!force_aesni()) GTEST_SKIP() << "host has no AES-NI";
  struct Vector {
    const char* key;
    const char* plain;
    const char* cipher;
  };
  // FIPS-197 Appendix C.1 and Appendix B; NIST SP 800-38A F.1.1 blocks 1-2.
  const std::array<Vector, 4> vectors{{
      {"000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff",
       "69c4e0d86a7b0430d8cdb78070b4c55a"},
      {"2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734",
       "3925841d02dc09fbdc118597196a0b32"},
      {"2b7e151628aed2a6abf7158809cf4f3c", "6bc1bee22e409f96e93d7e117393172a",
       "3ad77bb40d7a3660a89ecaf32466ef97"},
      {"2b7e151628aed2a6abf7158809cf4f3c", "ae2d8a571e03ac9c9eb76fac45af8e51",
       "f5d3d58503b9699de785895a96fdbaaf"},
  }};
  for (const Vector& v : vectors) {
    const Aes128 aes(hex_block(v.key));
    const Aes128::Block plain = hex_block(v.plain);
    EXPECT_EQ(aes.encrypt(plain), hex_block(v.cipher)) << v.plain;
    // Batch sizes on both sides of the 8-block pipeline, with the vector
    // at every position: the full groups and the tail must both agree.
    for (const std::size_t n : {1u, 7u, 8u, 9u, 17u, 32u}) {
      for (std::size_t at = 0; at < n; ++at) {
        std::vector<Aes128::Block> in(n, Aes128::Block{});
        in[at] = plain;
        std::vector<Aes128::Block> out(n);
        aes.encrypt_blocks_aesni(in, out);
        EXPECT_EQ(out[at], hex_block(v.cipher)) << v.plain << " n=" << n << " at=" << at;
        EXPECT_EQ(out[(at + 1) % n], aes.encrypt(in[(at + 1) % n]));
      }
    }
  }
}

TEST_F(CryptoPanSimdTest, AesNiMatchesSoftwareOnRandomAddresses) {
  if (!force_aesni()) GTEST_SKIP() << "host has no AES-NI";
  // Seeds 1 and 42 as the tests use them, plus the telescope's derived
  // key `from_seed(seed ^ 0xCA1DA)` for the study seeds 1, 7 and 42.
  const std::array<std::uint64_t, 5> seeds{1, 42, 1 ^ 0xCA1DAULL, 7 ^ 0xCA1DAULL,
                                           42 ^ 0xCA1DAULL};
  constexpr int kPerKey = 20'000;
  for (const std::uint64_t seed : seeds) {
    const CryptoPan pan = CryptoPan::from_seed(seed);
    Rng rng(seed + 99);
    std::vector<std::uint32_t> addrs(kPerKey);
    for (std::uint32_t& a : addrs) a = rng.next_u32();
    addrs[0] = 0;
    addrs[1] = 0xFFFFFFFFu;
    std::vector<std::uint32_t> hw(addrs.size());
    ASSERT_TRUE(force_aesni());
    for (std::size_t i = 0; i < addrs.size(); ++i) hw[i] = pan.anonymize(Ipv4(addrs[i])).value();
    simd::set_tier(simd::Tier::kScalar);
    ASSERT_FALSE(simd::use_aesni());
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      ASSERT_EQ(hw[i], pan.anonymize(Ipv4(addrs[i])).value())
          << "seed " << seed << " address " << Ipv4(addrs[i]).to_string();
    }
  }
}

TEST_F(CryptoPanSimdTest, ForcedScalarRunsTheSoftwarePath) {
  obs::set_level(obs::Level::kCounters);
  obs::reset();
  const obs::Counter& dispatched = obs::counter("simd.dispatch_cryptopan");
  const CryptoPan pan = CryptoPan::from_seed(0xCA1DA);
  simd::set_tier(simd::Tier::kScalar);
  EXPECT_FALSE(simd::use_aesni());
  for (std::uint32_t a = 0; a < 100; ++a) (void)pan.anonymize(Ipv4(a * 2654435761u));
  EXPECT_EQ(dispatched.value(), 0u);

  if (!force_aesni()) GTEST_SKIP() << "host has no AES-NI";
  for (std::uint32_t a = 0; a < 100; ++a) (void)pan.anonymize(Ipv4(a * 2654435761u));
  EXPECT_EQ(dispatched.value(), 100u);  // one per AES-NI anonymize
}

}  // namespace
}  // namespace obscorr::crypt
