// Typed log-file I/O: buffered writers and the serial reader for each record
// type.  The reader tolerates malformed lines, accepts files with or without
// the canonical header line, repairs dataset-level damage (schema drift,
// duplicates, bounded clock disorder) under an IngestPolicy and accounts for
// every input line in an IngestReport.  IngestPolicy::Raw() turns every
// repair off: parse-only, in file order.
#pragma once

#include <fstream>
#include <functional>
#include <optional>
#include <string>

#include "logs/ingest_machine.hpp"
#include "util/io_faults.hpp"
#include "util/mapped_file.hpp"

namespace astra::logs {

// Appends one formatted line per record; writes the header on open.  Stream
// failures (full disk, EIO, unwritable path) are sticky: Append becomes a
// no-op, Ok() turns false and Finish() flushes and reports the final status.
// Written() counts only lines the stream accepted.
template <typename Record>
class LogFileWriter {
 public:
  explicit LogFileWriter(const std::string& path) : path_(path), out_(path) {
    if (!out_ || !(out_ << detail::Header<Record>() << '\n')) failed_ = true;
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

// Hardened streaming ingest.  Malformed lines never stop the read, and
// under the default policy:
//  - drifted headers (renamed / reordered / extra columns) are repaired by
//    projecting every data line back into canonical column order;
//  - exact duplicate records are dropped (counted, never silently);
//  - records arriving within `reorder_window_seconds` of the newest
//    timestamp are re-sorted into nondecreasing order before delivery;
//  - malformed lines are quarantined with a per-reason breakdown, and strict
//    mode aborts once the malformed fraction exceeds the policy budget.
// The serial driver of IngestMachine (ingest_machine.hpp): every line of the
// file, in order.  Returns nullopt only when the file cannot be opened.  The
// report satisfies Consistent(): parsed + malformed == total_lines.
template <typename Record>
[[nodiscard]] std::optional<IngestReport> IngestLogFile(
    const std::string& path, const IngestPolicy& policy,
    const std::function<void(const Record&)>& sink) {
  const auto file = io::Current().MapFile(path);
  if (!file) return std::nullopt;
  IngestMachine<Record> machine(policy);
  ForEachLineInView(file->Bytes(),
                    [&](std::string_view line) { return machine.FeedLine(line, sink); });
  machine.Finish(sink);
  return machine.Report();
}

// Convenience: hardened ingest into a vector.
template <typename Record>
[[nodiscard]] std::optional<std::vector<Record>> IngestAllRecords(
    const std::string& path, const IngestPolicy& policy,
    IngestReport* report_out = nullptr) {
  std::vector<Record> records;
  const auto report = IngestLogFile<Record>(
      path, policy, [&records](const Record& r) { records.push_back(r); });
  if (!report) return std::nullopt;
  if (report_out != nullptr) *report_out = *report;
  return records;
}

}  // namespace astra::logs
