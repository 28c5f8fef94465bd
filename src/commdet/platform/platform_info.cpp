#include "commdet/platform/platform_info.hpp"

#include <omp.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace commdet {

namespace {

std::string openmp_version_string() {
#ifdef _OPENMP
  switch (_OPENMP) {
    case 201811: return "5.0";
    case 202011: return "5.1";
    case 202111: return "5.2";
    case 201511: return "4.5";
    case 201307: return "4.0";
    default: {
      std::ostringstream os;
      os << "(date " << _OPENMP << ")";
      return os.str();
    }
  }
#else
  return "none";
#endif
}

}  // namespace

std::string selected_thp_mode(const std::string& setting) {
  const auto open = setting.find('[');
  const auto close = setting.find(']', open);
  if (open == std::string::npos || close == std::string::npos || close == open + 1)
    return "unknown";
  return setting.substr(open + 1, close - open - 1);
}

PlatformInfo detect_platform() {
  PlatformInfo info;
  info.logical_cpus = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  info.omp_max_threads = omp_get_max_threads();
  info.openmp_version = openmp_version_string();

  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGE_SIZE);
  if (pages > 0 && page_size > 0)
    info.total_ram_bytes = static_cast<std::int64_t>(pages) * page_size;

  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (info.cpu_model.empty() && line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) info.cpu_model = line.substr(colon + 2);
    } else if (info.cpu_mhz == 0.0 && line.rfind("cpu MHz", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) info.cpu_mhz = std::stod(line.substr(colon + 1));
    }
  }
  if (info.cpu_model.empty()) info.cpu_model = "unknown";

  std::ifstream thp("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string thp_setting;
  std::getline(thp, thp_setting);
  info.thp_mode = selected_thp_mode(thp_setting);
  return info;
}

std::string format_platform_table(const PlatformInfo& info) {
  std::ostringstream os;
  os << "Processor:        " << info.cpu_model << "\n"
     << "Logical CPUs:     " << info.logical_cpus << "\n"
     << "OpenMP threads:   " << info.omp_max_threads << " (OpenMP " << info.openmp_version
     << ")\n"
     << "Clock (reported): " << info.cpu_mhz << " MHz\n"
     << "RAM:              " << (static_cast<double>(info.total_ram_bytes) / (1024.0 * 1024.0 * 1024.0))
     << " GiB\n"
     << "THP mode:         " << info.thp_mode << "\n";
  return os.str();
}

}  // namespace commdet
