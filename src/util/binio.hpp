// Bounded binary (de)serialization primitives for the streaming subsystem's
// checkpoints.  Fixed-width little-endian encoding, length-prefixed strings,
// and a CRC32 over the payload bytes.
//
// The Reader is designed for hostile input (a checkpoint file that was
// truncated, bit-flipped, or hand-crafted): every accessor bounds-checks
// before touching the buffer and flips a sticky failure flag instead of
// reading past the end, and count fields must pass CanReadItems() before the
// caller allocates for them — a corrupt 64-bit count can never trigger a
// multi-gigabyte reserve.  Callers check Ok() once at the end of a decode.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace astra::binio {

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void PutU8(std::uint8_t v);
  void PutU32(std::uint32_t v);
  void PutU64(std::uint64_t v);
  void PutI32(std::int32_t v);
  void PutI64(std::int64_t v);
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutDouble(double v);
  // 64-bit length prefix followed by the raw bytes.
  void PutString(std::string_view s);

 private:
  std::string& out_;
};

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  // False once any accessor ran past the end of the buffer.  Accessors keep
  // returning zero values after a failure, so a decode can run to completion
  // and check once.
  [[nodiscard]] bool Ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t Remaining() const noexcept {
    return data_.size() - pos_;
  }

  [[nodiscard]] std::uint8_t GetU8();
  [[nodiscard]] std::uint32_t GetU32();
  [[nodiscard]] std::uint64_t GetU64();
  [[nodiscard]] std::int32_t GetI32();
  [[nodiscard]] std::int64_t GetI64();
  [[nodiscard]] bool GetBool() { return GetU8() != 0; }
  [[nodiscard]] double GetDouble();
  // False (and failure flagged) when the prefixed length exceeds Remaining().
  [[nodiscard]] bool GetString(std::string& out);

  // Pre-allocation guard for a decoded element count: true only when `count`
  // items of at least `min_bytes_each` could still fit in the buffer.  Flags
  // failure when they cannot, so a corrupt count poisons the whole decode.
  [[nodiscard]] bool CanReadItems(std::uint64_t count, std::size_t min_bytes_each);

 private:
  [[nodiscard]] bool Take(std::size_t n) noexcept;

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// The checkpoint rule: true only when `decode` reads `payload` into fresh
// state within bounds and `encode` (the writer's encoder) writes that state
// back as the same bytes, so nothing an encoder never writes is normalised.
[[nodiscard]] bool DecodeCanonical(std::string_view payload,
                                   const std::function<bool(Reader&)>& decode,
                                   const std::function<void(Writer&)>& encode);

// CRC-32 (IEEE 802.3 polynomial, reflected) — the checksum guarding
// checkpoint payloads against torn writes and bit rot.
[[nodiscard]] std::uint32_t Crc32(std::string_view bytes) noexcept;

}  // namespace astra::binio
