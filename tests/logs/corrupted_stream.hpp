// Test input shared by the driver parity suites (serial vs sharded vs tail
// ingest): one synthetic memory-error stream, clean or after one corruption
// mode, as `astra-mrt corrupt` would leave it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "logs/corruption.hpp"
#include "logs/serialize.hpp"
#include "util/file_io.hpp"

namespace astra::logs::testdata {

// `records` CEs over eight nodes, one every 37 s, with a canonical header:
// enough nodes for per-node clock skew and enough span (several reorder
// windows) for out-of-order repair.
inline std::string CleanMemoryStream(int records) {
  std::string bytes = std::string(MemoryErrorHeader()) + "\n";
  const SimTime start = SimTime::FromCivil(2019, 6, 15, 12, 0, 0);
  for (int i = 0; i < records; ++i) {
    MemoryErrorRecord r;
    r.timestamp = start.AddSeconds(std::int64_t{37} * i);
    r.node = static_cast<NodeId>(i % 8);
    r.slot = static_cast<DimmSlot>(i % 3);
    r.socket = SocketOfSlot(r.slot);
    r.rank = static_cast<RankId>(i % 2);
    r.bank = static_cast<BankId>(i % 16);
    r.bit_position = EncodeRecordedBit(i % 72, 1);
    r.physical_address = 0x40000000ULL + static_cast<std::uint64_t>(i % 97) * 64;
    r.syndrome = 0x1234;
    bytes += FormatRecord(r) + "\n";
  }
  return bytes;
}

// The clean stream after `mode` at `severity`, applied through the file
// injector (so tail truncation and day-range drops act too).  `path` is
// scratch space.
inline std::optional<std::string> CorruptedMemoryStream(int records, CorruptionMode mode,
                                                        double severity,
                                                        std::uint64_t seed,
                                                        const std::string& path) {
  if (!WriteFileBytes(path, CleanMemoryStream(records))) return std::nullopt;
  CorruptionConfig config;
  config.seed = seed;
  config.Set(mode, severity);
  if (!CorruptionInjector(config).CorruptFile(path, /*protect_from_drop=*/true)) {
    return std::nullopt;
  }
  return ReadFileBytes(path);
}

}  // namespace astra::logs::testdata
