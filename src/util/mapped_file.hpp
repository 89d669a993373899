// Zero-copy file access for the ingest hot path.
//
// MappedFile exposes a whole file as one contiguous string_view, via mmap(2)
// where available and a read-whole-file fallback otherwise, so the line
// readers can hand out string_view slices instead of materializing a
// std::string per line.  SplitAtLineBoundaries then cuts that view into
// shards, never splitting a line, which is what makes the sharded batch
// ingest (logs::IngestAllRecords, logs/log_file.hpp) possible: each shard
// parses an exact, disjoint run of whole lines and the concatenation of
// shard outputs in index order equals a line-by-line scan.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace astra {

// Read-only view of a file's bytes.  Movable, not copyable; the view stays
// valid for the lifetime of the object.
class MappedFile {
 public:
  // Returns nullopt when the file cannot be opened.  An empty file maps to
  // an empty (non-null) view.
  [[nodiscard]] static std::optional<MappedFile> Open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] std::string_view Bytes() const noexcept {
    return size_ == 0 ? std::string_view{} : std::string_view{data_, size_};
  }
  // True when backed by mmap; false when the fallback slurped the file into
  // an owned buffer (still zero-copy from the caller's point of view).
  [[nodiscard]] bool Mapped() const noexcept { return mapped_; }

 private:
  MappedFile() = default;

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::string fallback_;  // owns the bytes when !mapped_
};

// Split `bytes` into at most `max_shards` contiguous sub-views cut only at
// '\n' boundaries.  Invariants (the chunker contract the parallel ingest
// relies on):
//   - the concatenation of the returned views, in order, equals `bytes`;
//   - every view except possibly the last ends with '\n', so no line spans
//     two shards;
//   - a line longer than the nominal chunk size simply collapses would-be
//     boundaries (the result has fewer shards, never a torn line);
//   - empty input yields no shards.
[[nodiscard]] std::vector<std::string_view> SplitAtLineBoundaries(
    std::string_view bytes, std::size_t max_shards);

// Visit each line of `bytes` as a view with the '\n' terminator excluded and
// any trailing '\r' (CRLF data) stripped — the same line semantics as
// std::getline: a final unterminated line is visited, a trailing newline
// does not produce an empty extra line.  `fn` returning false stops the
// walk.  Returns the number of lines visited (including the stopping one).
template <typename Fn>
std::size_t ForEachLineInView(std::string_view bytes, Fn&& fn) {
  std::size_t count = 0;
  std::size_t start = 0;
  while (start < bytes.size()) {
    std::size_t nl = bytes.find('\n', start);
    std::size_t end = nl == std::string_view::npos ? bytes.size() : nl;
    if (end > start && bytes[end - 1] == '\r') --end;
    ++count;
    if (!fn(bytes.substr(start, end - start))) return count;
    if (nl == std::string_view::npos) break;
    start = nl + 1;
  }
  return count;
}

// First line of `bytes` (getline semantics, '\r' stripped), or nullopt for
// empty input.  `rest_out`, when non-null, receives the remainder after the
// line's terminator — the byte range the chunker should shard.
[[nodiscard]] std::optional<std::string_view> FirstLineOf(
    std::string_view bytes, std::string_view* rest_out = nullptr) noexcept;

}  // namespace astra
