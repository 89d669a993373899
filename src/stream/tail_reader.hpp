// Tail-follow ingest: the streaming counterpart of logs::IngestLogFile.
//
// A TailReader drives the hardened-ingest state machine
// (logs/ingest_machine.hpp) for ONE growing log file, incrementally: each
// Poll() re-maps the file and feeds the machine any newly appended COMPLETE
// lines (a torn final line without its '\n' is left for a later poll —
// appenders write whole records, so a partial line means the writer is
// mid-append), so records pass the same quarantine / dedup / windowed-
// reorder pipeline the batch reader uses.
// Finish() consumes the final (possibly unterminated) line, drains the
// re-sort buffer and closes the accounting, after which Report() is field-
// identical to what IngestLogFile would have produced over the final bytes.
//
// Rotation/truncation: a file shorter than the consumed offset means the
// producer rotated (or truncated) the log.  The reader restarts at byte 0 of
// the new file — re-running header detection, since a fresh file carries a
// fresh header — while keeping every delivered record, the accounting and
// the dedup/reorder state: the stream is the unit of analysis, files are
// just its transport.  A missing file is reported (kMissing) and retried on
// the next poll; strict-budget aborts are sticky, exactly like the batch
// reader stopping mid-file.
//
// I/O faults: every map of the file goes through the io::Io seam and is
// retried under the reader's bounded backoff policy (util/retry.hpp), so a
// transient open/mmap failure is absorbed invisibly — IoRetries() counts the
// recoveries, the report stays byte-identical to a clean run.  Only after
// the attempt budget is spent does a poll surface kMissing; persistent
// unreadability is then the caller's policy decision (the watch CLI backs
// off across polls and eventually exits with a documented code).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "logs/ingest_machine.hpp"
#include "util/binio.hpp"
#include "util/io_faults.hpp"
#include "util/mapped_file.hpp"
#include "util/retry.hpp"

namespace astra::stream {

enum class TailStatus {
  kIdle,     // no new complete lines since the last poll
  kAdvanced, // consumed at least one new line
  kRotated,  // file shrank: restarted from byte 0 (may also have advanced)
  kAborted,  // strict policy stopped the ingest (sticky)
  kMissing,  // file absent/unreadable this poll; retried next poll
};

template <typename Record>
class TailReader {
 public:
  using Sink = std::function<void(const Record&)>;

  // `retry` bounds how many times one poll re-attempts a failed map before
  // reporting kMissing; `sleep` paces those attempts (null = immediate, the
  // poll loop itself provides pacing).  The default is fail-fast, matching
  // the pre-seam behaviour.
  TailReader(std::string path, const logs::IngestPolicy& policy,
             const RetryPolicy& retry = RetryPolicy::None(), SleepFn sleep = {})
      : path_(std::move(path)),
        retry_(retry),
        sleep_(std::move(sleep)),
        machine_(policy) {}

  // Consume newly appended complete lines.  `sink` receives records in the
  // same order the batch reader would deliver them.
  TailStatus Poll(const Sink& sink) {
    if (machine_.Aborted()) return TailStatus::kAborted;
    if (machine_.Finished()) return TailStatus::kIdle;
    const auto mapped = MapWithRetry();
    if (!mapped) return TailStatus::kMissing;
    cursor_.seen_file = true;

    bool rotated = false;
    std::string_view bytes = mapped->Bytes();
    if (bytes.size() < cursor_.offset) {
      // The file shrank under us: rotation or truncation.  Restart the file
      // cursor and header detection; analyzer-visible state stays.
      cursor_.offset = 0;
      machine_.RestartFile();
      ++cursor_.rotations;
      rotated = true;
    }

    std::string_view fresh = bytes.substr(cursor_.offset);
    const std::size_t last_nl = fresh.rfind('\n');
    if (last_nl == std::string_view::npos) {
      return rotated ? TailStatus::kRotated : TailStatus::kIdle;
    }
    const std::string_view complete = fresh.substr(0, last_nl + 1);
    const bool advanced = ForEachLineInView(complete, [&](std::string_view line) {
                            return machine_.FeedLine(line, sink);
                          }) > 0;
    cursor_.offset += complete.size();
    if (machine_.Aborted()) return TailStatus::kAborted;
    if (rotated) return TailStatus::kRotated;
    return advanced ? TailStatus::kAdvanced : TailStatus::kIdle;
  }

  // Consume the final unterminated line (batch getline semantics visit it),
  // drain the re-sort buffer and close the accounting.  Idempotent.
  void Finish(const Sink& sink) {
    if (machine_.Finished()) return;
    if (!machine_.Aborted()) {
      if (const auto mapped = MapWithRetry()) {
        cursor_.seen_file = true;
        std::string_view bytes = mapped->Bytes();
        if (bytes.size() >= cursor_.offset) {
          ForEachLineInView(bytes.substr(cursor_.offset), [&](std::string_view line) {
            return machine_.FeedLine(line, sink);
          });
          cursor_.offset = bytes.size();
        }
      }
    }
    machine_.Finish(sink);
  }

  [[nodiscard]] const logs::IngestReport& Report() const noexcept {
    return machine_.Report();
  }
  [[nodiscard]] bool SeenFile() const noexcept { return cursor_.seen_file; }
  [[nodiscard]] std::size_t Offset() const noexcept {
    return static_cast<std::size_t>(cursor_.offset);
  }
  [[nodiscard]] std::uint64_t Rotations() const noexcept { return cursor_.rotations; }
  [[nodiscard]] bool Aborted() const noexcept { return machine_.Aborted(); }
  [[nodiscard]] bool Finished() const noexcept { return machine_.Finished(); }
  // Transient I/O failures absorbed by in-poll retries.  Observability only:
  // a recovered fault never changes the report (and is not checkpointed).
  [[nodiscard]] std::uint64_t IoRetries() const noexcept { return io_retries_; }

  // Checkpoint the full reader state: the file cursor plus the ingest
  // machine (logs::IngestMachine::SaveState).
  void SaveState(binio::Writer& writer) const { machine_.SaveState(writer, cursor_); }

  // Replace this reader's state.  False on a malformed payload; the reader
  // is reset to its initial state, never half-restored.
  [[nodiscard]] bool LoadState(binio::Reader& reader) {
    return machine_.LoadState(reader, cursor_);
  }

 private:
  // Map the file through the Io seam, absorbing up to retry_.max_attempts-1
  // transient failures.  Failure here means the budget is spent.
  [[nodiscard]] std::optional<MappedFile> MapWithRetry() {
    std::optional<MappedFile> mapped;
    std::uint64_t attempts = 0;
    const auto map = [&] {
      ++attempts;
      mapped = io::Current().MapFile(path_);
      return mapped.has_value();
    };
    if (RetryWithBackoff(retry_, map, sleep_)) io_retries_ += attempts - 1;
    return mapped;
  }

  std::string path_;
  RetryPolicy retry_;
  SleepFn sleep_;
  std::uint64_t io_retries_ = 0;

  logs::ReaderCursor cursor_;
  logs::IngestMachine<Record> machine_;
};

}  // namespace astra::stream
