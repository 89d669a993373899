// Parallel sharded ingest: the multi-threaded driver of IngestMachine
// (ingest_machine.hpp), with byte-identical output at any thread count.
//
//  1. PARALLEL CLASSIFY.  The file is memory-mapped and, once the header
//     line is resolved, the remaining byte range is cut at newline
//     boundaries into one shard per worker (util/mapped_file.hpp).  Each
//     worker classifies its shard's lines into a pre-sized outcome arena —
//     the machine's stage 1, which carries ~all of the ingest cost (field
//     splitting, header projection, strict parsing, hashing).
//  2. ORDERED REPLAY.  The arenas, fed to the machine's ordered stage in
//     shard index order, are exactly the line sequence the serial reader
//     feeds it: every counter, repair line, abort point and the delivered
//     record order match IngestLogFile at any thread count.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "logs/log_file.hpp"
#include "util/io_faults.hpp"
#include "util/mapped_file.hpp"
#include "util/parallel.hpp"

namespace astra::logs {

namespace detail {

// Classify one shard's lines into `outcomes`; returns how many parsed.
// Reads only the shard bytes and the machine's header state (immutable
// during this phase), so shards run concurrently.
template <typename Record>
std::size_t ClassifyShard(std::string_view shard, const IngestMachine<Record>& machine,
                          std::vector<LineOutcome<Record>>& outcomes) {
  // Pre-size the arena: one newline count pass, then no growth.
  outcomes.reserve(static_cast<std::size_t>(std::count(shard.begin(), shard.end(), '\n')) + 1);
  std::size_t parsed = 0;
  std::string scratch;
  LineOutcome<Record> outcome;
  ForEachLineInView(shard, [&](std::string_view line) {
    if (machine.Classify(line, outcome, scratch)) {
      parsed += outcome.malformed == 0 ? 1 : 0;
      outcomes.push_back(outcome);
    }
    return true;
  });
  return parsed;
}

}  // namespace detail

// Files below this size are ingested serially: shard setup costs more than
// it saves, and the serial path is byte-identical anyway.
inline constexpr std::size_t kParallelIngestMinBytes = 64 * 1024;

// Hardened streaming ingest, parallel edition.  Semantics are identical to
// IngestLogFile (same policy handling, same report, same record order);
// `threads` sets the shard/worker count (0 = hardware concurrency, 1 forces
// the serial path).  Returns nullopt only when the file cannot be opened.
// `size_hint`, when provided, is called once between the two phases with
// the parsed-record count — sinks that buffer records can pre-size their
// storage instead of growing it delivery by delivery.
template <typename Record>
[[nodiscard]] std::optional<IngestReport> ParallelIngestLogFile(
    const std::string& path, const IngestPolicy& policy, unsigned threads,
    const std::function<void(const Record&)>& sink,
    const std::function<void(std::size_t)>& size_hint = nullptr) {
  const unsigned resolved = ResolveThreadCount(threads);
  if (resolved <= 1) return IngestLogFile<Record>(path, policy, sink);

  const auto file = io::Current().MapFile(path);
  if (!file) return std::nullopt;
  const std::string_view bytes = file->Bytes();
  if (bytes.size() < kParallelIngestMinBytes) {
    return IngestLogFile<Record>(path, policy, sink);
  }

  // The header is one line, resolved before sharding: a header is skipped,
  // anything else is data line 1.
  IngestMachine<Record> machine(policy);
  std::string_view data = bytes;
  std::string_view rest;
  if (const auto first = FirstLineOf(bytes, &rest); first && machine.TakeFirstLine(*first)) {
    data = rest;
  }

  const auto shards = SplitAtLineBoundaries(data, resolved);
  std::vector<std::vector<LineOutcome<Record>>> arenas(shards.size());
  std::vector<std::size_t> parsed(shards.size());
  ParallelShards(shards.size(), shards.size(),
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     parsed[i] = detail::ClassifyShard<Record>(shards[i], machine, arenas[i]);
                   }
                 });

  std::size_t total_parsed = 0;
  for (const std::size_t n : parsed) total_parsed += n;
  if (size_hint) size_hint(total_parsed);
  machine.Reserve(total_parsed);

  [&] {
    for (const auto& arena : arenas) {
      for (const auto& outcome : arena) {
        if (!machine.Feed(outcome, sink)) return;
      }
    }
  }();
  machine.Finish(sink);
  return machine.Report();
}

// Convenience: parallel hardened ingest into a pre-sized vector.
template <typename Record>
[[nodiscard]] std::optional<std::vector<Record>> ParallelIngestAllRecords(
    const std::string& path, const IngestPolicy& policy, unsigned threads,
    IngestReport* report_out = nullptr) {
  std::vector<Record> records;
  const auto report = ParallelIngestLogFile<Record>(
      path, policy, threads,
      [&records](const Record& r) { records.push_back(r); },
      [&records](std::size_t parsed) { records.reserve(parsed); });
  if (!report) return std::nullopt;
  if (report_out != nullptr) *report_out = *report;
  return records;
}

}  // namespace astra::logs
