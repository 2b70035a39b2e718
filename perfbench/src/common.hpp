// Shared vocabulary of the Runtime::submit benchmark: command-line options,
// the reported result, and small host/time helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// steady_clock nanoseconds (the clock every span and latency uses).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve_churn only: run the untimed store-populating pass and exit.
  bool populate = false;
  /// serve_churn only: directory of the file-backed decision store.
  std::string store_dir;
  /// Where a traced run writes its spans (CSV); empty = do not write.
  std::string trace_out;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. The last line of stdout is its JSON form.
class RunOutput {
 public:
  void metric(std::string name, double value, std::string unit);
  /// Record a failed correctness check (the first few messages are kept).
  void fail(const std::string& what);
  /// A human-readable context line printed before the JSON.
  void note(std::string line) { notes_.push_back(std::move(line)); }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  [[nodiscard]] bool correct() const { return violations_ == 0; }
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// Print the notes, one `name value unit` line per metric, the kept
  /// failure messages (stderr), and finally the JSON result line.
  void print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> messages_;
  std::uint64_t violations_ = 0;
};

/// CPUs this process may run on (sched_getaffinity; at least 1).
[[nodiscard]] unsigned usable_cpus();
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Nearest-rank quantile of `xs` (reorders `xs`; 0 when empty).
[[nodiscard]] std::uint64_t quantile(std::vector<std::uint64_t>& xs, double q);
/// Median of `xs` (reorders `xs`; 0 when empty).
[[nodiscard]] double median(std::vector<double> xs);

}  // namespace perfbench
