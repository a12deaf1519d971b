#pragma once
/// \file ipv4.hpp
/// IPv4 address value type and prefix utilities.
///
/// The paper's traffic matrices index the full 2^32 x 2^32 IPv4 x IPv4
/// space with uint32 row/column ids; `Ipv4` is that id plus formatting,
/// parsing, and prefix arithmetic (the telescope darkspace is a /8).

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace obscorr {

/// An IPv4 address stored in host byte order; `1.1.1.1` has value
/// 16843009, matching the paper's matrix-index example.
class Ipv4 {
 public:
  constexpr Ipv4() = default;
  constexpr explicit Ipv4(std::uint32_t value) : value_(value) {}
  constexpr Ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) | (std::uint32_t{c} << 8) |
               std::uint32_t{d}) {}

  constexpr std::uint32_t value() const { return value_; }

  /// Dotted-quad octets, most significant first.
  constexpr std::uint8_t octet(int i) const {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  /// Render as dotted-quad, e.g. "10.0.0.1".
  std::string to_string() const;

  /// Parse a dotted-quad string; returns nullopt on any malformation
  /// (missing octets, out-of-range values, stray characters).
  static std::optional<Ipv4> parse(std::string_view text);

  friend constexpr auto operator<=>(Ipv4, Ipv4) = default;

 private:
  std::uint32_t value_ = 0;
};

/// The address's text-order key: each octet replaced by the rank of its
/// decimal text among "0".."255" in string order, most significant
/// first. '.' and the end of the text both sort below every digit, so
/// comparing keys as integers compares the dotted-quad texts exactly as
/// std::string does — D4M row keys can be sorted as 32-bit integers.
std::uint32_t text_order_key(Ipv4 ip);

/// The address whose text-order key is `key` (inverse of text_order_key).
Ipv4 from_text_order_key(std::uint32_t key);

/// A CIDR prefix, e.g. 77.0.0.0/8. Used for the telescope darkspace and
/// honeyfarm sensor subnets.
class Ipv4Prefix {
 public:
  /// Construct from a base address and prefix length in [0, 32].
  /// Host bits of `base` below the prefix are zeroed.
  Ipv4Prefix(Ipv4 base, int length);

  Ipv4 base() const { return base_; }
  int length() const { return length_; }

  /// Number of addresses covered (2^(32-length)); full for /0.
  std::uint64_t size() const { return 1ULL << (32 - length_); }

  /// True when `addr` falls inside the prefix.
  bool contains(Ipv4 addr) const {
    return length_ == 0 || ((addr.value() ^ base_.value()) >> (32 - length_)) == 0;
  }

  /// The i-th address in the prefix (i < size()).
  Ipv4 at(std::uint64_t i) const;

  /// Render as "a.b.c.d/len".
  std::string to_string() const;

  /// Parse "a.b.c.d/len"; nullopt on malformation.
  static std::optional<Ipv4Prefix> parse(std::string_view text);

  friend bool operator==(const Ipv4Prefix&, const Ipv4Prefix&) = default;

 private:
  Ipv4 base_;
  int length_;
};

}  // namespace obscorr
