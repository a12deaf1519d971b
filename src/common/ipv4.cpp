#include "common/ipv4.hpp"

#include <array>
#include <charconv>

#include "common/error.hpp"

namespace obscorr {

namespace {

/// Each octet's decimal text, and the octets ranked by that text in
/// string order (rank -> octet and octet -> rank).
struct OctetText {
  std::array<std::array<char, 4>, 256> text{};  // digits, then the length
  std::array<std::uint8_t, 256> rank{};
  std::array<std::uint8_t, 256> octet_of_rank{};
};

constexpr OctetText make_octet_text() {
  OctetText t;
  for (unsigned o = 0; o < 256; ++o) {
    std::size_t len = 0;
    if (o >= 100) t.text[o][len++] = static_cast<char>('0' + o / 100);
    if (o >= 10) t.text[o][len++] = static_cast<char>('0' + o / 10 % 10);
    t.text[o][len++] = static_cast<char>('0' + o % 10);
    t.text[o][3] = static_cast<char>(len);
  }
  // Visit the texts depth-first, digit by digit: a text comes before
  // its extensions and they before its next sibling, which is string
  // order. "0" has no extensions: no octet text has a leading zero.
  unsigned next_rank = 0;
  const auto visit = [&](unsigned octet) {
    t.rank[octet] = static_cast<std::uint8_t>(next_rank);
    t.octet_of_rank[next_rank++] = static_cast<std::uint8_t>(octet);
  };
  visit(0);
  for (unsigned a = 1; a <= 9; ++a) {
    visit(a);
    for (unsigned ab = a * 10; ab < a * 10 + 10; ++ab) {
      visit(ab);
      for (unsigned abc = ab * 10; abc < ab * 10 + 10 && abc <= 255; ++abc) visit(abc);
    }
  }
  return t;
}

constexpr OctetText kOctetText = make_octet_text();

}  // namespace

std::string Ipv4::to_string() const {
  char out[15];
  std::size_t len = 0;
  for (int i = 0; i < 4; ++i) {
    if (i) out[len++] = '.';
    const std::array<char, 4>& text = kOctetText.text[octet(i)];
    for (int k = 0; k < text[3]; ++k) out[len++] = text[static_cast<std::size_t>(k)];
  }
  return std::string(out, len);
}

std::uint32_t text_order_key(Ipv4 ip) {
  std::uint32_t key = 0;
  for (int i = 0; i < 4; ++i) key = key << 8 | kOctetText.rank[ip.octet(i)];
  return key;
}

Ipv4 from_text_order_key(std::uint32_t key) {
  std::uint32_t value = 0;
  for (int i = 3; i >= 0; --i) value = value << 8 | kOctetText.octet_of_rank[key >> (8 * i) & 0xFFu];
  return Ipv4(value);
}

std::optional<Ipv4> Ipv4::parse(std::string_view text) {
  std::uint32_t value = 0;
  const char* p = text.data();
  const char* end = text.data() + text.size();
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
    unsigned octet = 0;
    auto [next, ec] = std::from_chars(p, end, octet);
    if (ec != std::errc{} || next == p || octet > 255) return std::nullopt;
    // Reject leading zeros like "01" (ambiguous octal forms).
    if (next - p > 1 && *p == '0') return std::nullopt;
    value = (value << 8) | octet;
    p = next;
  }
  if (p != end) return std::nullopt;
  return Ipv4(value);
}

Ipv4Prefix::Ipv4Prefix(Ipv4 base, int length) : base_(base), length_(length) {
  OBSCORR_REQUIRE(length >= 0 && length <= 32, "prefix length must be in [0,32]");
  if (length < 32) {
    const std::uint32_t mask = length == 0 ? 0U : ~0U << (32 - length);
    base_ = Ipv4(base.value() & mask);
  }
}

Ipv4 Ipv4Prefix::at(std::uint64_t i) const {
  OBSCORR_REQUIRE(i < size(), "prefix address index out of range");
  return Ipv4(base_.value() + static_cast<std::uint32_t>(i));
}

std::string Ipv4Prefix::to_string() const {
  return base_.to_string() + "/" + std::to_string(length_);
}

std::optional<Ipv4Prefix> Ipv4Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const auto base = Ipv4::parse(text.substr(0, slash));
  if (!base) return std::nullopt;
  int length = -1;
  const auto len_text = text.substr(slash + 1);
  auto [next, ec] = std::from_chars(len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || next != len_text.data() + len_text.size()) return std::nullopt;
  if (length < 0 || length > 32) return std::nullopt;
  return Ipv4Prefix(*base, length);
}

}  // namespace obscorr
