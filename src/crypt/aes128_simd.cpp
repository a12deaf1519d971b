/// \file aes128_simd.cpp
/// AES-NI batch encryption. The round keys are the FIPS-197 expansion
/// `Aes128` already holds: AES-NI keeps the state in the same byte order
/// as the specification's input block, so each 16-byte round key loads
/// as is.

#include "crypt/aes128.hpp"

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace obscorr::crypt {

#if defined(__x86_64__) || defined(__i386__)

__attribute__((target("aes,sse2"))) void Aes128::encrypt_blocks_aesni(
    std::span<const Block> in, std::span<Block> out) const {
  OBSCORR_REQUIRE(in.size() == out.size(), "encrypt_blocks_aesni: size mismatch");
  __m128i rk[11];
  for (int r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys_.data() + 16 * r));
  }
  constexpr std::size_t kLanes = 8;
  std::size_t i = 0;
  for (; i + kLanes <= in.size(); i += kLanes) {
    __m128i s[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      s[l] = _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in[i + l].data())),
                           rk[0]);
    }
    for (int r = 1; r < 10; ++r) {
      for (std::size_t l = 0; l < kLanes; ++l) s[l] = _mm_aesenc_si128(s[l], rk[r]);
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out[i + l].data()),
                       _mm_aesenclast_si128(s[l], rk[10]));
    }
  }
  for (; i < in.size(); ++i) {
    __m128i s = _mm_xor_si128(_mm_loadu_si128(reinterpret_cast<const __m128i*>(in[i].data())),
                              rk[0]);
    for (int r = 1; r < 10; ++r) s = _mm_aesenc_si128(s, rk[r]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[i].data()), _mm_aesenclast_si128(s, rk[10]));
  }
}

#else

void Aes128::encrypt_blocks_aesni(std::span<const Block> in, std::span<Block> out) const {
  // No AES-NI off x86 (simd::use_aesni() is false there): the software
  // cipher keeps the contract.
  OBSCORR_REQUIRE(in.size() == out.size(), "encrypt_blocks_aesni: size mismatch");
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = encrypt(in[i]);
}

#endif

}  // namespace obscorr::crypt
