#include "host.hpp"

#include <sys/resource.h>
#include <sys/vfs.h>

#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <thread>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

constexpr long kTmpfsMagic = 0x01021994;

// "tmpfs" or "disk" for the filesystem holding `path`.
std::string FilesystemKind(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  return static_cast<long>(info.f_type) == kTmpfsMagic ? "tmpfs" : "disk";
}

}  // namespace

double ReferenceLoopSeconds() {
  const auto start = std::chrono::steady_clock::now();
  // A dependent multiply-xorshift chain: pure ALU, no memory traffic.
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < 60'000'000ULL; ++i) {
    x ^= x >> 29;
    x *= 0xbf58476d1ce4e5b9ULL;
    x += i;
  }
  sink = x;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

CpuStat ReadCpuStat() {
  CpuStat stat;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return stat;
  double value = 0.0;
  for (int field = 0; field < 10 && in >> value; ++field) {
    // Fields: user nice system idle iowait irq softirq steal guest
    // guest_nice; guest time is already counted in user.
    if (field < 8) stat.total += value;
    if (field == 7) stat.steal = value;
  }
  return stat;
}

double StealShare(const CpuStat& start, const CpuStat& end) {
  const double total = end.total - start.total;
  return total > 0.0 ? (end.steal - start.steal) / total : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

std::string FingerprintJson(const std::string& work_dir) {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" PERFBENCH_COMPILER "\", \"build_type\": \"" +
         std::string(PERFBENCH_BUILD_TYPE) + "\", \"work_fs\": \"" +
         FilesystemKind(work_dir) + "\"}";
}

}  // namespace perfbench
