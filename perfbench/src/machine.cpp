#include "machine.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <string>
#include <thread>

#include "bbb/core/simd/batch_ops.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// "107520K" / "105M" / "2048" (bytes) as sysfs writes cache sizes.
std::uint64_t parse_size(const std::string& text) {
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    return 0;
  }
  const char unit = used < text.size() ? text[used] : ' ';
  if (unit == 'K') return value << 10;
  if (unit == 'M') return value << 20;
  if (unit == 'G') return value << 30;
  return value;
}

/// The highest-level data or unified cache cpu0 reports in sysfs; falls
/// back to sysconf's L3 figure.
void read_llc(Machine& machine) {
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_in(dir + "level");
    std::ifstream type_in(dir + "type");
    std::ifstream size_in(dir + "size");
    if (!level_in || !size_in) continue;
    std::uint32_t level = 0;
    std::string type;
    std::string size;
    level_in >> level;
    type_in >> type;
    size_in >> size;
    if (type == "Instruction") continue;
    if (level >= machine.llc_level) {
      machine.llc_level = level;
      machine.llc_bytes = parse_size(size);
    }
  }
  if (machine.llc_bytes == 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (l3 > 0) {
      machine.llc_bytes = static_cast<std::uint64_t>(l3);
      machine.llc_level = 3;
    }
  }
}

}  // namespace

Machine fingerprint() {
  Machine machine;
  machine.cpu_model = cpu_model();
  const unsigned hw = std::thread::hardware_concurrency();
  machine.nproc = hw == 0 ? 1 : hw;
  read_llc(machine);
  machine.simd = std::string(
      bbb::core::simd::to_string(bbb::core::simd::active_simd_tier()));
#if defined(__clang__)
  machine.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  machine.compiler = std::string("gcc ") + __VERSION__;
#else
  machine.compiler = "unknown";
#endif
  return machine;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::stoull(line.substr(6))) * 1024.0 / 1e6;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

}  // namespace perfbench
