#pragma once
/// \file argparse.hpp
/// Minimal --key=value flag parser shared by all bench and example binaries.
/// Unknown flags are an error (catches typos in sweep scripts); every
/// binary supports --help which prints registered flags with defaults.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bbb::io {

/// Declarative flag set. Register flags with defaults, then parse().
class ArgParser {
 public:
  /// \param program_name used in the --help banner.
  /// \param description one-line summary for --help.
  ArgParser(std::string program_name, std::string description);

  /// Register flags (key without leading dashes). Duplicate keys throw.
  void add_flag(const std::string& key, std::uint64_t default_value,
                const std::string& help);
  void add_flag(const std::string& key, double default_value, const std::string& help);
  void add_flag(const std::string& key, const std::string& default_value,
                const std::string& help);

  /// Parse argv. Accepts --key=value and --key value forms plus --help.
  /// Integer values are digits only: std::stoull would read "-1" as
  /// 2^64 - 1 and accept leading whitespace or '+'.
  /// \returns false if --help was requested (help text already printed).
  /// \throws std::invalid_argument for unknown flags or malformed values.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::uint64_t get_u64(const std::string& key) const;
  /// get_u64 for flags that feed 32-bit parameters (n, replicates, ...).
  /// \throws std::invalid_argument naming the flag if the value exceeds
  ///         UINT32_MAX, so it is never silently narrowed.
  [[nodiscard]] std::uint32_t get_u32(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] const std::string& get_string(const std::string& key) const;

  /// Render the --help text.
  [[nodiscard]] std::string help() const;

 private:
  enum class Kind { kU64, kDouble, kString };
  struct Flag {
    Kind kind;
    std::string value;
    std::string default_value;
    std::string help;
  };

  void add(const std::string& key, Kind kind, std::string default_value,
           const std::string& help);
  Flag& find(const std::string& key);
  const Flag& find(const std::string& key) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;  // help prints in registration order
};

}  // namespace bbb::io
