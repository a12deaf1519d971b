#pragma once
/// \file aes128.hpp
/// AES-128 block encryption (FIPS-197), encrypt-only.
///
/// Written from the specification so the repository is self-contained
/// offline; it exists solely as the PRF inside CryptoPAN (Fan et al.
/// 2004), the prefix-preserving anonymizer the CAIDA pipeline applies
/// before traffic matrices are shared. Correctness is pinned to the
/// FIPS-197 appendix test vectors in the unit tests. Not intended as a
/// general-purpose cipher (no decryption, no modes, not constant-time).
/// On hosts with AES-NI a batched hardware path runs the same cipher;
/// the software `encrypt` stays the reference it is tested against.

#include <array>
#include <cstdint>
#include <span>

namespace obscorr::crypt {

/// AES-128 encryptor with a fixed key.
class Aes128 {
 public:
  using Block = std::array<std::uint8_t, 16>;
  using Key = std::array<std::uint8_t, 16>;

  explicit Aes128(const Key& key);

  /// Encrypt one 16-byte block (the FIPS-197 software reference).
  Block encrypt(const Block& plaintext) const;

  /// Encrypt `in` into `out` (equal sizes) with the AES-NI instructions
  /// over the same round keys, eight blocks in flight so each round's
  /// latency overlaps the others. Bit-identical to `encrypt` per block.
  /// Callers check `simd::use_aesni()` first (aes128_simd.cpp).
  void encrypt_blocks_aesni(std::span<const Block> in, std::span<Block> out) const;

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 176> round_keys_{};
};

}  // namespace obscorr::crypt
