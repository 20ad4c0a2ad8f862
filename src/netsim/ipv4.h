// ipv4.h — strongly typed IPv4 addresses and CIDR prefixes.
//
// These are the vocabulary types of the whole library: every probing tool,
// the Hobbit classifier and the aggregation layer exchange addresses and
// prefixes in these forms.  Both types are trivially copyable values with
// total ordering so they can live in sorted containers and be used as keys.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace hobbit::netsim {

/// An IPv4 address held as a host-order 32-bit integer.
///
/// The numeric ordering of `Ipv4Address` equals the lexicographic ordering
/// of the dotted-decimal form, which is what the Hobbit hierarchy test
/// relies on when it represents a group of addresses by the range
/// [min, max].
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}

  /// Builds an address from its four dotted-decimal octets,
  /// most significant first (a.b.c.d).
  static constexpr Ipv4Address FromOctets(std::uint8_t a, std::uint8_t b,
                                          std::uint8_t c, std::uint8_t d) {
    return Ipv4Address((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                       (std::uint32_t{c} << 8) | std::uint32_t{d});
  }

  /// Parses "a.b.c.d".  Returns nullopt on any syntax error (missing octet,
  /// value > 255, stray characters).
  static std::optional<Ipv4Address> Parse(std::string_view text);

  constexpr std::uint32_t value() const { return value_; }

  /// The i-th octet, 0 being the most significant ("a" in a.b.c.d).
  constexpr std::uint8_t Octet(int i) const {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  /// Dotted-decimal rendering, e.g. "192.0.2.7"; AppendTo writes the same
  /// text onto the end of *out.
  std::string ToString() const;
  void AppendTo(std::string* out) const;

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  std::uint32_t value_ = 0;
};

/// A CIDR prefix: a base address plus a length in [0, 32].
///
/// Invariant: the host bits of `base` below `length` are zero; the factory
/// functions canonicalise.  Prefixes order first by base address then by
/// length, so sorting a list of prefixes puts parents immediately before
/// their first child.
class Prefix {
 public:
  constexpr Prefix() = default;

  /// Canonicalising constructor: masks `base` down to `length` bits.
  static constexpr Prefix Of(Ipv4Address base, int length) {
    return Prefix(Ipv4Address(base.value() & MaskFor(length)), length);
  }

  /// The /24 containing `address` — the paper's unit of study.
  static constexpr Prefix Slash24Of(Ipv4Address address) {
    return Of(address, 24);
  }

  /// Parses "a.b.c.d/len".  Returns nullopt on syntax errors or when the
  /// base has non-zero host bits (e.g. "10.0.0.1/24").
  static std::optional<Prefix> Parse(std::string_view text);

  constexpr Ipv4Address base() const { return base_; }
  constexpr int length() const { return length_; }

  /// The network mask as an integer, e.g. 0xFFFFFF00 for a /24.
  constexpr std::uint32_t Mask() const { return MaskFor(length_); }

  /// Number of addresses covered: 2^(32-length).  Returned as uint64 so a
  /// /0 does not overflow.
  constexpr std::uint64_t Size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  /// First address of the prefix (== base()).
  constexpr Ipv4Address First() const { return base_; }

  /// Last address of the prefix.
  constexpr Ipv4Address Last() const {
    return Ipv4Address(base_.value() | ~Mask());
  }

  constexpr bool Contains(Ipv4Address address) const {
    return (address.value() & Mask()) == base_.value();
  }

  /// True when `other` lies entirely within this prefix (including equal).
  constexpr bool Contains(const Prefix& other) const {
    return other.length_ >= length_ && Contains(other.base_);
  }

  /// True when the two prefixes share no address.
  constexpr bool DisjointFrom(const Prefix& other) const {
    return !Contains(other) && !other.Contains(*this);
  }

  /// The i-th sub-prefix of the given (longer) length; e.g. a /24 has four
  /// /26 children indexed 0..3.  Precondition: child_length >= length().
  constexpr Prefix Child(int child_length, std::uint32_t index) const {
    return Prefix(
        Ipv4Address(base_.value() | (index << (32 - child_length))),
        child_length);
  }

  /// "a.b.c.d/len" rendering; AppendTo writes the same text onto the end
  /// of *out.
  std::string ToString() const;
  void AppendTo(std::string* out) const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

 private:
  constexpr Prefix(Ipv4Address base, int length)
      : base_(base), length_(length) {}

  static constexpr std::uint32_t MaskFor(int length) {
    return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  }

  Ipv4Address base_;
  int length_ = 0;
};

/// Length of the longest common prefix of two addresses, in bits [0, 32].
constexpr int LongestCommonPrefixLength(Ipv4Address a, Ipv4Address b) {
  std::uint32_t diff = a.value() ^ b.value();
  if (diff == 0) return 32;
  int length = 0;
  for (std::uint32_t probe = 0x80000000u; (diff & probe) == 0; probe >>= 1) {
    ++length;
  }
  return length;
}

/// Longest common prefix length between two /24 blocks measured on their
/// /24 identifiers, i.e. clamped to [0, 24] — the metric of Figure 7.
constexpr int LongestCommonPrefixLength(const Prefix& a, const Prefix& b) {
  int bits = LongestCommonPrefixLength(a.base(), b.base());
  int limit = a.length() < b.length() ? a.length() : b.length();
  return bits < limit ? bits : limit;
}

/// The narrowest single prefix covering both addresses.
constexpr Prefix SpanningPrefix(Ipv4Address a, Ipv4Address b) {
  return Prefix::Of(a, LongestCommonPrefixLength(a, b));
}

}  // namespace hobbit::netsim
