// Typed log-file I/O: buffered writers and the batch reader for each record
// type.  The reader tolerates malformed lines, accepts files with or without
// the canonical header line, repairs dataset-level damage (schema drift,
// duplicates, bounded clock disorder) under an IngestPolicy and accounts for
// every input line in an IngestReport.  IngestPolicy::Raw() turns every
// repair off: parse-only, in file order.
#pragma once

#include <algorithm>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "logs/ingest_machine.hpp"
#include "util/io_faults.hpp"
#include "util/mapped_file.hpp"
#include "util/parallel.hpp"

namespace astra::logs {

// Appends one formatted line per record; writes the header on open.  Stream
// failures (full disk, EIO, unwritable path) are sticky: Append becomes a
// no-op, Ok() turns false and Finish() flushes and reports the final status.
// Written() counts only lines the stream accepted.
template <typename Record>
class LogFileWriter {
 public:
  explicit LogFileWriter(const std::string& path) : path_(path), out_(path) {
    if (!out_ || !(out_ << detail::Schema<Record>::Header() << '\n')) failed_ = true;
  }

  [[nodiscard]] bool Ok() const noexcept { return !failed_; }
  [[nodiscard]] std::size_t Written() const noexcept { return written_; }

  void Append(const Record& record) {
    if (failed_) return;
    if (out_ << FormatRecord(record) << '\n') {
      ++written_;
    } else {
      failed_ = true;
    }
  }

  // Push buffered lines to the OS without closing the stream — the live
  // append mode uses this between batches so a tailing reader sees whole
  // records as soon as the simulator emits them.
  void Flush() {
    if (failed_) return;
    out_.flush();
    if (!out_) failed_ = true;
  }

  // Flush, fsync through the io::Io seam, and surface any deferred stream
  // failure.  ofstream buffers writes, so a full disk often only shows up
  // here — callers that care about data durability must check Finish(), not
  // just per-Append Ok().  The fsync makes "Finish() returned true" mean the
  // records survive power loss, not just that they reached the page cache.
  [[nodiscard]] bool Finish() {
    if (!synced_) {
      if (!failed_) {
        out_.flush();
        if (!out_) failed_ = true;
      }
      out_.close();
      if (!failed_ && !io::Current().SyncFile(path_)) failed_ = true;
      synced_ = true;
    }
    return !failed_;
  }

 private:
  std::string path_;
  std::ofstream out_;
  std::size_t written_ = 0;
  bool failed_ = false;
  bool synced_ = false;
};

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
  LineOutcome<Record> outcome;
  ForEachLineInView(shard, [&](std::string_view line) {
    if (machine.Classify(line, outcome)) {
      parsed += outcome.malformed == 0 ? 1 : 0;
      outcomes.push_back(outcome);
    }
    return true;
  });
  return parsed;
}

}  // namespace detail

// Hardened ingest of a whole file.  Malformed lines never stop the read,
// and under the default policy:
//  - drifted headers (renamed / reordered / extra columns) are repaired by
//    reading every data line's fields through the header's column map;
//  - a record equal to an earlier one still inside the reorder window is
//    dropped (counted, never silently);
//  - records arriving within `reorder_window_seconds` of the newest
//    timestamp are re-sorted into nondecreasing order before delivery;
//  - malformed lines are quarantined with a per-reason breakdown, and strict
//    mode aborts once the malformed fraction exceeds the policy budget.
// The batch driver of IngestMachine (ingest_machine.hpp), in two phases:
//  1. CLASSIFY.  The file is memory-mapped and, once the header line is
//     resolved, the rest is cut at newline boundaries into `threads` shards
//     (0 = hardware concurrency; util/mapped_file.hpp).  Each shard's lines
//     are classified into a pre-sized outcome arena — the machine's stage 1,
//     which carries ~all of the ingest cost.  One shard runs inline.
//  2. ORDERED REPLAY.  The arenas, fed to the machine's ordered stage in
//     shard index order, are the file's lines in file order, so every
//     counter, repair line, abort point and the delivered record order are
//     the same at any shard count.
// Returns nullopt only when the file cannot be opened.  The report satisfies
// Consistent(): parsed + malformed == total_lines.
template <typename Record>
[[nodiscard]] std::optional<std::vector<Record>> IngestAllRecords(
    const std::string& path, const IngestPolicy& policy, unsigned threads,
    IngestReport* report_out = nullptr) {
  const auto file = io::Current().MapFile(path);
  if (!file) return std::nullopt;

  // The header is one line, resolved before sharding: a header is skipped,
  // anything else is data line 1.
  IngestMachine<Record> machine(policy);
  std::string_view data = file->Bytes();
  std::string_view rest;
  if (const auto first = FirstLineOf(data, &rest); first && machine.TakeFirstLine(*first)) {
    data = rest;
  }

  const auto shards = SplitAtLineBoundaries(data, ResolveThreadCount(threads));
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
  std::vector<Record> records;
  records.reserve(total_parsed);

  const auto sink = [&records](const Record& r) { records.push_back(r); };
  [&] {
    for (const auto& arena : arenas) {
      for (const auto& outcome : arena) {
        if (!machine.Feed(outcome, sink)) return;
      }
    }
  }();
  machine.Finish(sink);
  if (report_out != nullptr) *report_out = machine.Report();
  return records;
}

}  // namespace astra::logs
