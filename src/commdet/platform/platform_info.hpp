// Host platform detection: reproduces the role of the paper's Table I
// (processor characteristics of the test platforms) for whatever machine
// the benchmarks run on.
#pragma once

#include <cstdint>
#include <string>

namespace commdet {

struct PlatformInfo {
  std::string cpu_model;        // e.g. "Intel Xeon E7-8870"
  int logical_cpus = 0;         // online logical processors
  int omp_max_threads = 0;      // OpenMP runtime's view
  double cpu_mhz = 0.0;         // nominal/reported frequency
  std::int64_t total_ram_bytes = 0;
  std::string openmp_version;   // from _OPENMP date macro
  std::string thp_mode;         // transparent huge pages: always / madvise / never / unknown
};

/// The selected word of a sysfs THP setting ("always [madvise] never" ->
/// "madvise"), or "unknown" when none is bracketed.
[[nodiscard]] std::string selected_thp_mode(const std::string& setting);

/// Detects the current host from /proc and the OpenMP runtime.
[[nodiscard]] PlatformInfo detect_platform();

/// Formats the info as a Table-I-style text block.
[[nodiscard]] std::string format_platform_table(const PlatformInfo& info);

}  // namespace commdet
