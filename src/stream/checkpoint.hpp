// Durable checkpoint files: one envelope, one writer, one reader.
//
// Every checkpoint the toolkit writes is one file in one envelope (all
// integers little-endian):
//
//   offset  size  field
//   0       8     magic: "ASTRACKP" for a StreamMonitor (`watch`),
//                 "ASTRASRV" for astra_serve's whole tree (serve/daemon.cpp)
//   8       4     format version
//   12      8     payload length in bytes
//   20      4     CRC-32 of the payload bytes
//   24      n     payload
//
// WriteCheckpointFile and ReadCheckpointFile own the envelope, the durable
// write and the validated, retried read; a caller supplies only the payload
// codec.  The monitor checkpoint's payload is the StreamMonitor::Snapshot
// bytes: reader cursors followed by each engine's Snapshot in fixed order.
// ReadCheckpointFile alone decides what a payload may be: it keeps one only
// if the decoded state re-encodes, through the writer's own encoder, to the
// same bytes.  Section decoders just decode into fresh state.
//
// Monitor checkpoint version history:
//   1 — per-analyzer stream-wrapper state (pre-engine); the coalescer
//       carried no monthly bins and the predictor state lived in a separate
//       het-record side buffer.
//   2 — unified engine snapshots (core/engine.hpp): absolute-calendar-month
//       bins in the coalesce and temporal engines, het records buffered
//       inside the uncorrectable engine.
//   3 — the positional section is gone: the report's positional fragment is
//       computed from the coalesced faults at Finalize, so the engine set
//       snapshots four engines.
//   4 — the coalescer's groups and address details drop their monthly bins
//       and row sets: only the temporal engine bins CEs by month.
//   5 — each reader's full-history list of dedup hashes gives way to the
//       records delivered at the reorder horizon's second, as text with
//       their arrival numbers: dedup is scoped to the reorder window, so a
//       reader's state is O(window).
// Payloads of an older version are laid out differently and are rejected
// with kBadVersion, never half-decoded.
//
// Writes are atomic AND durable: the envelope is written to a `.tmp`
// sidecar, the sidecar is fsync'd, renamed over the target, and the parent
// directory is fsync'd so the rename itself survives power loss.  A crash at
// any point leaves either the previous checkpoint intact or the new one
// fully in place — never a torn target.  A torn `.tmp` left by a crash is
// inert (reads never look at it) and is swept by RemoveStaleCheckpointTmp
// on startup.
//
// Reads are paranoid: a file that is unreadable, short, mislabelled,
// version-skewed, checksum-mismatched, malformed or not canonical is
// REJECTED with a specific status, and a rejected monitor restore leaves the
// monitor in its freshly-constructed state; the caller decides whether to
// start over or abort.  Version bumps are the compatibility mechanism.
//
// Environmental failures (kIoError on either side, kTruncated/kBadCrc on a
// read — the signatures of reading a file mid-replacement) are retried under
// the caller's RetryPolicy before the status is surfaced.  Structural
// rejections (bad magic, bad version, bad payload) are never retried —
// re-reading cannot fix them.  The default policy is a single attempt.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "stream/monitor.hpp"
#include "util/binio.hpp"
#include "util/retry.hpp"
#include "util/thread_annotations.hpp"

namespace astra::stream {

inline constexpr std::string_view kCheckpointMagic = "ASTRACKP";
inline constexpr std::uint32_t kCheckpointVersion = 5;

enum class CheckpointStatus {
  kOk,
  kIoError,     // cannot read/write the file
  kBadMagic,    // not a checkpoint file
  kBadVersion,  // produced by an incompatible format version
  kTruncated,   // shorter than the envelope or the declared payload
  kBadCrc,      // payload bytes do not match the stored checksum
  kBadPayload,  // envelope intact but the state inside failed to decode
};

[[nodiscard]] std::string_view CheckpointStatusMessage(CheckpointStatus status);

// Write the envelope around the payload `fill` appends to `path` atomically
// and durably (tmp + fsync + rename + dir fsync), retrying each I/O step
// under `retry`.  `fill` runs once, before any I/O.
[[nodiscard]] CheckpointStatus WriteCheckpointFile(
    const std::string& path, std::string_view magic, std::uint32_t version,
    const std::function<void(binio::Writer&)>& fill, const RetryPolicy& retry,
    const SleepFn& sleep = {}) ASTRA_BLOCKING;

// Read `path` and validate its envelope against `magic` and `version`,
// retrying environmental failures under `retry`, then run `decode` once and
// re-encode with `encode` (the writer's `fill`): unless both round-trip to
// the payload's bytes (binio::DecodeCanonical) it is kBadPayload, and the
// decoded state is the caller's to discard.
[[nodiscard]] CheckpointStatus ReadCheckpointFile(
    const std::string& path, std::string_view magic, std::uint32_t version,
    const std::function<bool(binio::Reader&)>& decode,
    const std::function<void(binio::Writer&)>& encode, const RetryPolicy& retry,
    const SleepFn& sleep = {}) ASTRA_BLOCKING;

// Serialize `monitor` to `path` through WriteCheckpointFile.
[[nodiscard]] CheckpointStatus SaveMonitorCheckpoint(
    const StreamMonitor& monitor, const std::string& path,
    const RetryPolicy& retry = RetryPolicy::None(), const SleepFn& sleep = {})
    ASTRA_BLOCKING;

// Replace `monitor`'s state from `path` through ReadCheckpointFile.  On any
// non-kOk status the monitor is reset to a fresh start, never half-restored.
[[nodiscard]] CheckpointStatus RestoreMonitorCheckpoint(
    StreamMonitor& monitor, const std::string& path,
    const RetryPolicy& retry = RetryPolicy::None(), const SleepFn& sleep = {})
    ASTRA_BLOCKING;

// Whether a checkpoint exists at `path`: up to `retry.max_attempts` stat
// calls through the Io seam, back to back, so a transient stat failure is
// not mistaken for "no checkpoint yet".  A missing file costs every attempt.
[[nodiscard]] bool CheckpointFileExists(const std::string& path,
                                        const RetryPolicy& retry) ASTRA_BLOCKING;

// Sweep the `.tmp` sidecar a crashed save may have left next to `path`.
// Returns false only when a sidecar exists and cannot be removed; a missing
// sidecar is success.  Call once on startup before the first save.
[[nodiscard]] bool RemoveStaleCheckpointTmp(const std::string& path);

}  // namespace astra::stream
