#include "util/io_faults.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ASTRA_HAVE_FSYNC 1
#include <fcntl.h>
#include <unistd.h>
#endif

namespace astra::io {

std::string_view FaultName(Fault fault) noexcept {
  switch (fault) {
    case Fault::kOpenFail: return "open-fail";
    case Fault::kReadFail: return "read-fail";
    case Fault::kShortRead: return "short-read";
    case Fault::kMapFail: return "map-fail";
    case Fault::kWriteFail: return "write-fail";
    case Fault::kTornWrite: return "torn-write";
    case Fault::kRenameFail: return "rename-fail";
    case Fault::kSyncFail: return "sync-fail";
    case Fault::kStatFail: return "stat-fail";
    case Fault::kRemoveFail: return "remove-fail";
  }
  return "unknown";
}

// --- passthrough base ---------------------------------------------------------

std::optional<std::string> Io::ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // A path that opens but cannot be read (a directory) makes libstdc++'s
  // filebuf throw from the read itself, whatever the stream's exception mask.
  try {
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) return std::nullopt;
    return bytes;
  } catch (const std::ios_base::failure&) {
    return std::nullopt;
  }
}

std::optional<MappedFile> Io::MapFile(const std::string& path) {
  return MappedFile::Open(path);
}

bool Io::WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  return static_cast<bool>(out);
}

bool Io::Rename(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::rename(from, to, ec);
  return !ec;
}

bool Io::SyncFile(const std::string& path) {
#if ASTRA_HAVE_FSYNC
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;  // no durability barrier available; best effort
#endif
}

bool Io::SyncDir(const std::string& path) {
#if ASTRA_HAVE_FSYNC
  const int fd = ::open(path.empty() ? "." : path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
#else
  (void)path;
  return true;
#endif
}

std::optional<std::uint64_t> Io::FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  return static_cast<std::uint64_t>(size);
}

bool Io::Remove(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);  // false (no ec) when absent: still gone
  return !ec;
}

// --- current-instance plumbing ------------------------------------------------

namespace {
std::atomic<Io*> g_current{nullptr};
}  // namespace

Io& DefaultIo() noexcept {
  static Io real;
  return real;
}

Io& Current() noexcept {
  Io* io = g_current.load(std::memory_order_acquire);
  return io != nullptr ? *io : DefaultIo();
}

ScopedIo::ScopedIo(Io& io) noexcept
    : previous_(g_current.exchange(&io, std::memory_order_acq_rel)) {}

ScopedIo::~ScopedIo() { g_current.store(previous_, std::memory_order_release); }

// --- fault injection ----------------------------------------------------------

FaultyIo::FaultyIo(const FaultConfig& config, Io* base)
    : config_(config), base_(base != nullptr ? base : &DefaultIo()) {}

bool FaultyIo::Applies(const std::string& path) const noexcept {
  return config_.path_filter.empty() ||
         path.find(config_.path_filter) != std::string::npos;
}

bool FaultyIo::Inject(Fault fault, double probability) {
  if (probability <= 0.0) return false;
  const auto at = static_cast<std::size_t>(fault);
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t draw = draws_[at]++;
  // Identity-keyed decision: (seed, kind, draw index), independent of every
  // other fault kind's draw history.
  Rng rng(MixSeed(config_.seed, static_cast<std::uint64_t>(at), draw));
  bool fire = probability >= 1.0 || rng.UniformDouble() < probability;
  if (fire && config_.max_consecutive > 0 &&
      consecutive_[at] >= config_.max_consecutive) {
    fire = false;  // transience bound: force a success, clearing the streak
  }
  if (fire) {
    ++consecutive_[at];
    ++stats_.injected[at];
  } else {
    consecutive_[at] = 0;
  }
  return fire;
}

double FaultyIo::Fraction(Fault fault) {
  const auto at = static_cast<std::size_t>(fault);
  const std::lock_guard<std::mutex> lock(mutex_);
  Rng rng(MixSeed(config_.seed ^ 0xf7ac71005ULL, static_cast<std::uint64_t>(at),
                  draws_[at]));
  return rng.UniformDouble();
}

FaultStats FaultyIo::Stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::optional<std::string> FaultyIo::ReadFile(const std::string& path) {
  if (!Applies(path)) return base_->ReadFile(path);
  if (Inject(Fault::kOpenFail, config_.open_fail)) return std::nullopt;
  auto bytes = base_->ReadFile(path);
  if (!bytes) return bytes;
  if (Inject(Fault::kReadFail, config_.read_fail)) return std::nullopt;
  if (!bytes->empty() && Inject(Fault::kShortRead, config_.read_short)) {
    // Strict prefix: at least one byte is always lost.
    const auto keep = static_cast<std::size_t>(
        Fraction(Fault::kShortRead) * static_cast<double>(bytes->size()));
    bytes->resize(keep < bytes->size() ? keep : bytes->size() - 1);
  }
  return bytes;
}

std::optional<MappedFile> FaultyIo::MapFile(const std::string& path) {
  if (!Applies(path)) return base_->MapFile(path);
  if (Inject(Fault::kOpenFail, config_.open_fail)) return std::nullopt;
  if (Inject(Fault::kMapFail, config_.map_fail)) return std::nullopt;
  return base_->MapFile(path);
}

bool FaultyIo::WriteFile(const std::string& path, std::string_view bytes) {
  if (!Applies(path)) return base_->WriteFile(path, bytes);
  if (Inject(Fault::kWriteFail, config_.write_fail)) return false;
  if (Inject(Fault::kTornWrite, config_.write_torn)) {
    // ENOSPC mid-write: a strict prefix lands on disk and the call fails.
    // The torn file is deliberately left behind — crash-safe callers must
    // survive it (sidecar + rename), and chaos tests assert they do.
    auto keep = static_cast<std::size_t>(
        Fraction(Fault::kTornWrite) * static_cast<double>(bytes.size()));
    if (!bytes.empty() && keep >= bytes.size()) keep = bytes.size() - 1;
    (void)base_->WriteFile(path, bytes.substr(0, keep));
    return false;
  }
  return base_->WriteFile(path, bytes);
}

bool FaultyIo::Rename(const std::string& from, const std::string& to) {
  if (!Applies(from)) return base_->Rename(from, to);
  if (Inject(Fault::kRenameFail, config_.rename_fail)) return false;
  return base_->Rename(from, to);
}

bool FaultyIo::SyncFile(const std::string& path) {
  if (!Applies(path)) return base_->SyncFile(path);
  if (Inject(Fault::kSyncFail, config_.sync_fail)) return false;
  return base_->SyncFile(path);
}

bool FaultyIo::SyncDir(const std::string& path) {
  if (!Applies(path)) return base_->SyncDir(path);
  if (Inject(Fault::kSyncFail, config_.sync_fail)) return false;
  return base_->SyncDir(path);
}

std::optional<std::uint64_t> FaultyIo::FileSize(const std::string& path) {
  if (!Applies(path)) return base_->FileSize(path);
  if (Inject(Fault::kStatFail, config_.stat_fail)) return std::nullopt;
  return base_->FileSize(path);
}

bool FaultyIo::Remove(const std::string& path) {
  if (!Applies(path)) return base_->Remove(path);
  if (Inject(Fault::kRemoveFail, config_.remove_fail)) return false;
  return base_->Remove(path);
}

}  // namespace astra::io
