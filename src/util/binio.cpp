#include "util/binio.hpp"

#include <array>
#include <bit>

namespace astra::binio {

namespace {

template <typename T>
void PutLe(std::string& out, T v) {
  std::array<char, sizeof(T)> bytes;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  out.append(bytes.data(), bytes.size());
}

template <typename T>
T GetLe(std::string_view data, std::size_t pos) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(data[pos + i])) << (8 * i);
  }
  return v;
}

}  // namespace

void Writer::PutU8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
void Writer::PutU32(std::uint32_t v) { PutLe(out_, v); }
void Writer::PutU64(std::uint64_t v) { PutLe(out_, v); }
void Writer::PutI32(std::int32_t v) { PutLe(out_, static_cast<std::uint32_t>(v)); }
void Writer::PutI64(std::int64_t v) { PutLe(out_, static_cast<std::uint64_t>(v)); }

void Writer::PutDouble(double v) { PutU64(std::bit_cast<std::uint64_t>(v)); }

void Writer::PutString(std::string_view s) {
  PutU64(s.size());
  out_.append(s.data(), s.size());
}

bool Reader::Take(std::size_t n) noexcept {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::GetU8() {
  if (!Take(1)) return 0;
  return static_cast<std::uint8_t>(static_cast<unsigned char>(data_[pos_++]));
}

std::uint32_t Reader::GetU32() {
  if (!Take(4)) return 0;
  const auto v = GetLe<std::uint32_t>(data_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::GetU64() {
  if (!Take(8)) return 0;
  const auto v = GetLe<std::uint64_t>(data_, pos_);
  pos_ += 8;
  return v;
}

std::int32_t Reader::GetI32() { return static_cast<std::int32_t>(GetU32()); }
std::int64_t Reader::GetI64() { return static_cast<std::int64_t>(GetU64()); }

double Reader::GetDouble() { return std::bit_cast<double>(GetU64()); }

bool Reader::GetString(std::string& out) {
  const std::uint64_t len = GetU64();
  if (!ok_ || len > Remaining()) {
    ok_ = false;
    return false;
  }
  out.assign(data_.data() + pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return true;
}

bool Reader::CanReadItems(std::uint64_t count, std::size_t min_bytes_each) {
  // Division avoids count * min_bytes_each overflow on hostile counts.
  if (!ok_ || min_bytes_each == 0 || count > Remaining() / min_bytes_each) {
    ok_ = false;
    return false;
  }
  return true;
}

bool DecodeCanonical(std::string_view payload,
                     const std::function<bool(Reader&)>& decode,
                     const std::function<void(Writer&)>& encode) {
  Reader reader(payload);
  if (!decode(reader) || !reader.Ok()) return false;
  std::string reencoded;
  reencoded.reserve(payload.size());
  Writer writer(reencoded);
  encode(writer);
  return reencoded == payload;
}

namespace {

constexpr std::array<std::uint32_t, 256> MakeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = MakeCrcTable();

}  // namespace

std::uint32_t Crc32(std::string_view bytes) noexcept {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    crc = kCrcTable[(crc ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace astra::binio
