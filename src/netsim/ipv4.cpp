#include "netsim/ipv4.h"

#include <charconv>

namespace hobbit::netsim {
namespace {

// Parses a decimal octet at the front of `text`, advancing it.  Returns
// nullopt unless one to three digits encoding a value <= 255 are present.
std::optional<std::uint8_t> ConsumeOctet(std::string_view& text) {
  unsigned value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin || value > 255) return std::nullopt;
  if (ptr - begin > 3) return std::nullopt;  // reject "0000" style padding
  text.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return static_cast<std::uint8_t>(value);
}

bool ConsumeChar(std::string_view& text, char expected) {
  if (text.empty() || text.front() != expected) return false;
  text.remove_prefix(1);
  return true;
}

}  // namespace

std::optional<Ipv4Address> Ipv4Address::Parse(std::string_view text) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0 && !ConsumeChar(text, '.')) return std::nullopt;
    auto octet = ConsumeOctet(text);
    if (!octet) return std::nullopt;
    value = (value << 8) | *octet;
  }
  if (!text.empty()) return std::nullopt;
  return Ipv4Address(value);
}

std::string Ipv4Address::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Ipv4Address::AppendTo(std::string* out) const {
  char text[15];
  char* end = text;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) *end++ = '.';
    // An octet takes at most three digits; bounding each write by that
    // lets the compiler see that four of them fit.
    end = std::to_chars(end, end + 3, unsigned{Octet(i)}).ptr;
  }
  out->append(text, end);
}

std::optional<Prefix> Prefix::Parse(std::string_view text) {
  auto slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto base = Ipv4Address::Parse(text.substr(0, slash));
  if (!base) return std::nullopt;
  std::string_view length_text = text.substr(slash + 1);
  unsigned length = 0;
  auto [ptr, ec] = std::from_chars(
      length_text.data(), length_text.data() + length_text.size(), length);
  if (ec != std::errc{} || ptr != length_text.data() + length_text.size() ||
      length > 32) {
    return std::nullopt;
  }
  Prefix canonical = Prefix::Of(*base, static_cast<int>(length));
  if (canonical.base() != *base) return std::nullopt;  // host bits set
  return canonical;
}

std::string Prefix::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void Prefix::AppendTo(std::string* out) const {
  base_.AppendTo(out);
  char text[3];
  out->push_back('/');
  out->append(text, std::to_chars(text, text + sizeof(text), length_).ptr);
}

}  // namespace hobbit::netsim
