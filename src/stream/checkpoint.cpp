#include "stream/checkpoint.hpp"

#include <filesystem>
#include <optional>

#include "util/io_faults.hpp"

namespace astra::stream {

std::string_view CheckpointStatusMessage(CheckpointStatus status) {
  switch (status) {
    case CheckpointStatus::kOk: return "ok";
    case CheckpointStatus::kIoError: return "cannot read or write the file";
    case CheckpointStatus::kBadMagic: return "not a checkpoint file";
    case CheckpointStatus::kBadVersion: return "incompatible checkpoint version";
    case CheckpointStatus::kTruncated: return "file shorter than its envelope declares";
    case CheckpointStatus::kBadCrc: return "payload checksum mismatch";
    case CheckpointStatus::kBadPayload: return "malformed monitor state";
  }
  return "unknown";
}

namespace {

// The envelope fields after the magic: version, payload length, CRC-32.
constexpr std::size_t kEnvelopeFieldBytes = 4 + 8 + 4;

std::string ParentDirOf(const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  return parent.empty() ? std::string(".") : parent.string();
}

// Validate `bytes` as an envelope labelled `magic` and `version`; on kOk,
// `payload` views its payload.
CheckpointStatus OpenEnvelope(std::string_view bytes, std::string_view magic,
                              std::uint32_t version, std::string_view& payload) {
  if (bytes.size() < magic.size()) return CheckpointStatus::kTruncated;
  if (bytes.substr(0, magic.size()) != magic) return CheckpointStatus::kBadMagic;

  binio::Reader header(bytes.substr(magic.size()));
  const std::uint32_t stored_version = header.GetU32();
  const std::uint64_t payload_len = header.GetU64();
  const std::uint32_t crc = header.GetU32();
  if (!header.Ok()) return CheckpointStatus::kTruncated;
  if (stored_version != version) return CheckpointStatus::kBadVersion;
  if (payload_len > header.Remaining()) return CheckpointStatus::kTruncated;
  // Trailing garbage is as suspicious as a short read.
  if (payload_len < header.Remaining()) return CheckpointStatus::kBadPayload;
  payload = bytes.substr(bytes.size() - payload_len);
  if (binio::Crc32(payload) != crc) return CheckpointStatus::kBadCrc;
  return CheckpointStatus::kOk;
}

// Environmental failures a re-read can fix: the file vanished mid-swap
// (kIoError), or we raced a writer and saw a prefix / mixed bytes
// (kTruncated, kBadCrc).  Structural rejections are permanent.
bool RetryableRead(CheckpointStatus status) noexcept {
  return status == CheckpointStatus::kIoError ||
         status == CheckpointStatus::kTruncated ||
         status == CheckpointStatus::kBadCrc;
}

}  // namespace

CheckpointStatus WriteCheckpointFile(
    const std::string& path, std::string_view magic, std::uint32_t version,
    const std::function<void(binio::Writer&)>& fill, const RetryPolicy& retry,
    const SleepFn& sleep) {
  // `fill` appends the payload straight behind placeholder fields, which are
  // patched once its length and CRC are known: the payload is never copied.
  const std::size_t header_size = magic.size() + kEnvelopeFieldBytes;
  std::string envelope(magic);
  envelope.resize(header_size);
  binio::Writer payload_writer(envelope);
  fill(payload_writer);
  const std::string_view payload = std::string_view(envelope).substr(header_size);
  std::string fields;
  binio::Writer field_writer(fields);
  field_writer.PutU32(version);
  field_writer.PutU64(payload.size());
  field_writer.PutU32(binio::Crc32(payload));
  envelope.replace(magic.size(), fields.size(), fields);

  // Durability protocol: write tmp, fsync tmp, rename, fsync parent dir.  A
  // crash before the rename leaves the old checkpoint untouched (plus an
  // inert tmp); a crash after leaves the new one fully in place.  Each step
  // is retried independently — a torn tmp from an earlier failed attempt is
  // simply overwritten by the next.
  io::Io& io = io::Current();
  const std::string tmp = path + ".tmp";
  const bool written = RetryWithBackoff(
      retry,
      [&] { return io.WriteFile(tmp, envelope) && io.SyncFile(tmp); }, sleep);
  if (!written ||
      !RetryWithBackoff(retry, [&] { return io.Rename(tmp, path); }, sleep)) {
    (void)io.Remove(tmp);
    return CheckpointStatus::kIoError;
  }
  const std::string parent = ParentDirOf(path);
  if (!RetryWithBackoff(retry, [&] { return io.SyncDir(parent); }, sleep)) {
    // The checkpoint content is in place; only the rename's durability is in
    // doubt.  Surface it — callers keep the previous artifact semantics.
    return CheckpointStatus::kIoError;
  }
  return CheckpointStatus::kOk;
}

CheckpointStatus ReadCheckpointFile(
    const std::string& path, std::string_view magic, std::uint32_t version,
    const std::function<bool(binio::Reader&)>& decode,
    const std::function<void(binio::Writer&)>& encode, const RetryPolicy& retry,
    const SleepFn& sleep) {
  std::optional<std::string> bytes;
  std::string_view payload;
  CheckpointStatus status = CheckpointStatus::kIoError;
  // Re-read until the envelope validates or is structurally rejected;
  // `status` holds the last outcome whether or not the budget ran out.
  (void)RetryWithBackoff(
      retry,
      [&] {
        bytes = io::Current().ReadFile(path);
        status = bytes ? OpenEnvelope(*bytes, magic, version, payload)
                       : CheckpointStatus::kIoError;
        return !RetryableRead(status);
      },
      sleep);
  if (status != CheckpointStatus::kOk) return status;
  return binio::DecodeCanonical(payload, decode, encode)
             ? CheckpointStatus::kOk
             : CheckpointStatus::kBadPayload;
}

CheckpointStatus SaveMonitorCheckpoint(const StreamMonitor& monitor,
                                       const std::string& path,
                                       const RetryPolicy& retry,
                                       const SleepFn& sleep) {
  return WriteCheckpointFile(
      path, kCheckpointMagic, kCheckpointVersion,
      [&monitor](binio::Writer& writer) { monitor.Snapshot(writer); }, retry,
      sleep);
}

CheckpointStatus RestoreMonitorCheckpoint(StreamMonitor& monitor,
                                          const std::string& path,
                                          const RetryPolicy& retry,
                                          const SleepFn& sleep) {
  const CheckpointStatus status = ReadCheckpointFile(
      path, kCheckpointMagic, kCheckpointVersion,
      [&monitor](binio::Reader& reader) { return monitor.Restore(reader); },
      [&monitor](binio::Writer& writer) { monitor.Snapshot(writer); }, retry,
      sleep);
  if (status != CheckpointStatus::kOk) {
    // Reject-and-reset: Restore resets before failing on an empty payload.
    binio::Reader empty{std::string_view{}};
    (void)monitor.Restore(empty);
  }
  return status;
}

bool CheckpointFileExists(const std::string& path, const RetryPolicy& retry) {
  return RetryWithBackoff(
      retry, [&] { return io::Current().FileSize(path).has_value(); });
}

bool RemoveStaleCheckpointTmp(const std::string& path) {
  io::Io& io = io::Current();
  const std::string tmp = path + ".tmp";
  if (!io.FileSize(tmp).has_value()) return true;  // absent: nothing to sweep
  return io.Remove(tmp) && !io.FileSize(tmp).has_value();
}

}  // namespace astra::stream
