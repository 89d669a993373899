#include "util/strings.hpp"

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace astra {
namespace {

constexpr std::uint64_t kLowBits = 0x0101010101010101ULL;
constexpr std::uint64_t kLow7Bits = 0x7F7F7F7F7F7F7F7FULL;

// Exact SWAR zero-byte detector: the high bit of each byte of the result is
// set iff that byte of `word` is zero.  Adding 0x7F to the low seven bits of
// a byte never carries into the next byte, so no byte's verdict depends on
// its neighbours (Mycroft's `(x - 0x01..) & ~x & 0x80..` is only exact for
// the lowest zero byte: its borrow also flags a following 0x01 byte).
constexpr std::uint64_t ZeroByteMask(std::uint64_t word) noexcept {
  return ~(((word & kLow7Bits) + kLow7Bits) | word | kLow7Bits);
}

// Byte index (0 = lowest address) of a set high bit in a detector mask.
inline unsigned MaskByteIndex(std::uint64_t mask) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<unsigned>(std::countr_zero(mask)) >> 3;
  } else {
    return static_cast<unsigned>(std::countl_zero(mask)) >> 3;
  }
}

}  // namespace

std::size_t ScanFields(std::string_view text, char delim, std::string_view* out,
                       std::size_t max) noexcept {
  const char* data = text.data();
  const std::size_t size = text.size();
  const std::uint64_t pattern = kLowBits * static_cast<unsigned char>(delim);

  std::size_t count = 0;
  std::size_t field_start = 0;
  const auto emit = [&](std::size_t delim_pos) noexcept {
    if (count >= max) return false;
    out[count++] = text.substr(field_start, delim_pos - field_start);
    field_start = delim_pos + 1;
    return true;
  };

  // Whole 8-byte words: one detector evaluation per word, then one bit-clear
  // iteration per delimiter the word contains.  The tail (and any view
  // shorter than a word) falls to the scalar loop below — loads stay inside
  // [data, data + size) so views flush against an mmap boundary are safe.
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, 8);
    std::uint64_t hits = ZeroByteMask(word ^ pattern);
    while (hits != 0) {
      if (!emit(i + MaskByteIndex(hits))) return max + 1;
      if constexpr (std::endian::native == std::endian::little) {
        hits &= hits - 1;  // clear lowest set bit = lowest-address hit
      } else {
        hits &= ~(std::uint64_t{1} << (63 - std::countl_zero(hits)));
      }
    }
  }
  for (; i < size; ++i) {
    if (data[i] == delim && !emit(i)) return max + 1;
  }

  if (count >= max) return max + 1;
  out[count++] = text.substr(field_start);
  return count;
}

std::vector<std::string_view> SplitView(std::string_view text, char delim) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string_view> SplitWhitespace(std::string_view text) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    const std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) fields.push_back(text.substr(start, i - start));
  }
  return fields;
}

std::string_view TrimView(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) noexcept {
  return text.substr(0, prefix.size()) == prefix;
}

std::optional<std::int64_t> ParseInt64(std::string_view text) noexcept {
  std::int64_t value = 0;
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> ParseUint64(std::string_view text, int base) noexcept {
  if (base == 16 && StartsWith(text, "0x")) text.remove_prefix(2);
  std::uint64_t value = 0;
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value, base);
  if (ec != std::errc{} || ptr != last || text.empty()) return std::nullopt;
  return value;
}

std::optional<double> ParseDouble(std::string_view text) noexcept {
  double value = 0.0;
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) return std::nullopt;
  return value;
}

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string WithThousands(std::uint64_t value) {
  const std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

}  // namespace astra
