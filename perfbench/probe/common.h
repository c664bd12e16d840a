// Shared helpers of the qbench probe: clocks, medians, /proc readers
// and a tiny flat-JSON line writer. Every subcommand ends its standard
// output with one `QBENCH {...}` line that perfbench/run.py parses.
#ifndef PERFBENCH_PROBE_COMMON_H_
#define PERFBENCH_PROBE_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace qbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Quantile `q` of `v` by the nearest-rank rule (sorts a copy).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return v[rank];
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// A `Key:   123 kB` field of /proc/self/status, in MB (0 if absent).
double ProcStatusMb(const char* key);

/// Reads a whole text file as lines (no trailing newlines). Exits the
/// process with a message when the file cannot be read.
std::vector<std::string> ReadLines(const std::string& path);

/// Ordered key -> number/string map rendered as one JSON object line.
class JsonLine {
 public:
  void Num(const std::string& key, double value);
  void Str(const std::string& key, const std::string& value);
  /// Prints `QBENCH <json>` on stdout and flushes.
  void Emit() const;

 private:
  std::map<std::string, std::string> fields_;
};

[[noreturn]] void Die(const std::string& message);

/// `--name value` flags after the positional arguments, all required.
/// Missing or malformed flags end the process: the probe is only driven
/// by run.py, so a mismatch is a benchmark bug, not user input to
/// recover from.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& name) const;
  double Num(const std::string& name) const;

 private:
  std::map<std::string, std::string> values_;
};

int RunEnv();
int RunDiscover(int argc, char** argv);
int RunExpect(int argc, char** argv);
int RunServeLayers(int argc, char** argv);
int RunLoad(int argc, char** argv);

}  // namespace qbench

#endif  // PERFBENCH_PROBE_COMMON_H_
