#pragma once
/// \file machine.hpp
/// The machine fingerprint every result carries, and the process's peak
/// resident set size.

#include <cstdint>
#include <string>

namespace perfbench {

struct Machine {
  std::string cpu_model;         ///< /proc/cpuinfo "model name"
  std::uint32_t nproc = 1;       ///< hardware threads
  std::uint64_t llc_bytes = 0;   ///< last-level cache size; 0 = unknown
  std::uint32_t llc_level = 0;   ///< cache level the LLC size was read from
  std::string simd;              ///< batch-kernel dispatch tier
  std::string compiler;
};

/// Read the fingerprint of the running machine and build.
[[nodiscard]] Machine fingerprint();

/// Restart the peak-RSS high-water mark at the current RSS (Linux
/// clear_refs), so the peak covers only what runs afterwards. Returns
/// false where unsupported; the peak then covers the whole process.
bool reset_peak_rss();

/// Peak resident set size in MB (10^6 bytes) since the last reset.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
