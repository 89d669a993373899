// Small string utilities shared by the log parsers and table writers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace astra {

// Split `text` on `delim` into views over the original buffer.  Empty fields
// are preserved ("a,,b" -> {"a","","b"}); an empty input yields {""}.
[[nodiscard]] std::vector<std::string_view> SplitView(std::string_view text,
                                                      char delim);

// Split on runs of whitespace; empty fields never produced.
[[nodiscard]] std::vector<std::string_view> SplitWhitespace(std::string_view text);

// Zero-allocation field scanner for the record parsers' hot path: split
// `text` on `delim` into the caller's fixed-capacity array `out[0..max)`.
// Field semantics are identical to SplitView (empty fields preserved, an
// empty input is one empty field).  Returns the field count, or `max + 1`
// the moment a field beyond `out[max - 1]` starts — callers comparing the
// return value against an exact expected count treat both "too few" and
// "too many" as a mismatch without scanning the rest of an oversized line.
//
// The scan is SWAR (SIMD-within-a-register): 8 bytes are loaded per step and
// the delimiter positions extracted with an exact zero-byte detector, so the
// common all-payload word costs one compare instead of eight.  Loads never
// touch bytes past text.data() + text.size() — safe on views into an mmap'd
// file whose last line ends flush against the mapping boundary.
std::size_t ScanFields(std::string_view text, char delim, std::string_view* out,
                       std::size_t max) noexcept;

[[nodiscard]] std::string_view TrimView(std::string_view text) noexcept;

[[nodiscard]] bool StartsWith(std::string_view text, std::string_view prefix) noexcept;

// Strict numeric parsing: the entire field must be consumed.
[[nodiscard]] std::optional<std::int64_t> ParseInt64(std::string_view text) noexcept;
[[nodiscard]] std::optional<std::uint64_t> ParseUint64(std::string_view text,
                                                       int base = 10) noexcept;
[[nodiscard]] std::optional<double> ParseDouble(std::string_view text) noexcept;

// Branch-light strict parses for the record scanners.  Accept/reject
// language is IDENTICAL to the from_chars-backed helpers above (empty
// rejected, whole field consumed, overflow rejected) — the fuzz parity
// suite in tests/logs pins that equivalence — but the tight digit loops
// inline where from_chars cannot.
//
// ParseDecimalI64 == ParseInt64: optional leading '-', no '+', INT64
// overflow rejected.
[[nodiscard]] inline std::optional<std::int64_t> ParseDecimalI64(
    std::string_view text) noexcept {
  const bool negative = !text.empty() && text.front() == '-';
  if (negative) text.remove_prefix(1);
  if (text.empty()) return std::nullopt;
  // One past INT64_MAX: the magnitude INT64_MIN needs when negative.
  const std::uint64_t limit =
      negative ? (std::uint64_t{1} << 63) : (std::uint64_t{1} << 63) - 1;
  std::uint64_t value = 0;
  for (const char c : text) {
    const unsigned digit = static_cast<unsigned char>(c) - static_cast<unsigned>('0');
    if (digit > 9) return std::nullopt;
    if (value > (limit - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  if (!negative) return static_cast<std::int64_t>(value);
  // Negate via the unsigned magnitude so INT64_MIN round-trips without UB.
  return static_cast<std::int64_t>(~value + 1);
}

// ParseHexU64 == ParseUint64(text, 16): optional lowercase "0x" prefix,
// upper/lowercase digits, overflow rejected (leading zeros never overflow).
// Digits decode through a table with no branch per digit: past the leading
// zeros a field longer than 16 digits overflows, so the loop never checks.
[[nodiscard]] inline std::optional<std::uint64_t> ParseHexU64(
    std::string_view text) noexcept {
  // Digit values by byte: 0-15 for '0'-'9', 'a'-'f', 'A'-'F', and 16 for
  // every other byte, so one OR over a field's digits flags a bad one.
  static constexpr std::array<std::uint8_t, 256> kDigitValue = [] {
    std::array<std::uint8_t, 256> table{};
    for (std::size_t c = 0; c < table.size(); ++c) {
      table[c] = c >= '0' && c <= '9'   ? static_cast<std::uint8_t>(c - '0')
                 : c >= 'a' && c <= 'f' ? static_cast<std::uint8_t>(c - 'a' + 10)
                 : c >= 'A' && c <= 'F' ? static_cast<std::uint8_t>(c - 'A' + 10)
                                        : std::uint8_t{16};
    }
    return table;
  }();
  if (text.size() >= 2 && text[0] == '0' && text[1] == 'x') text.remove_prefix(2);
  if (text.empty()) return std::nullopt;
  while (text.size() > 16 && text.front() == '0') text.remove_prefix(1);
  if (text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  unsigned invalid = 0;
  for (const char c : text) {
    const unsigned digit = kDigitValue[static_cast<unsigned char>(c)];
    invalid |= digit;
    value = (value << 4) | (digit & 15u);
  }
  if ((invalid & 16u) != 0) return std::nullopt;
  return value;
}

// Fixed-precision double formatting ("%.*f") without locale dependence.
[[nodiscard]] std::string FormatDouble(double value, int precision);

// Thousands-separated integer rendering for human-facing report tables
// (e.g. 4369731 -> "4,369,731").
[[nodiscard]] std::string WithThousands(std::uint64_t value);

}  // namespace astra
