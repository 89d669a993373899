// Host diagnostics: a fixed ALU reference loop, resource usage and a
// fingerprint of the machine and build.  None of these is an end-to-end
// metric; they let a reader tell host drift from a code change.
#pragma once

#include <string>

namespace perfbench {

// Wall seconds of a fixed integer loop (0.12-0.26 s on the 4-vCPU host the
// benchmark was developed on, depending on its load).
[[nodiscard]] double ReferenceLoopSeconds();

// The host-wide CPU counters of /proc/stat's first line, in clock ticks:
// every state summed, and steal (time the hypervisor ran someone else
// while a vCPU had work).  Zero when /proc/stat cannot be read.
struct CpuStat {
  double total = 0.0;
  double steal = 0.0;
};
[[nodiscard]] CpuStat ReadCpuStat();
// Steal as a share of all CPU time between two readings.
[[nodiscard]] double StealShare(const CpuStat& start, const CpuStat& end);

[[nodiscard]] double PeakRssMb();
[[nodiscard]] double ProcessCpuSeconds();
[[nodiscard]] double ThreadCpuSeconds();

// JSON object: nproc, compiler, build type and the work directory's
// filesystem kind.
[[nodiscard]] std::string FingerprintJson(const std::string& work_dir);

}  // namespace perfbench
