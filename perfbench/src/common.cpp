#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr std::size_t kKeptMessages = 20;

}  // namespace

void RunOutput::metric(std::string name, double value, std::string unit) {
  // Only a broken measurement yields NaN or infinity, and JSON has no
  // spelling for either: report it as a failed check instead.
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void RunOutput::fail(const std::string& what) {
  ++violations_;
  if (messages_.size() < kKeptMessages) messages_.push_back(what);
}

void RunOutput::print() const {
  for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
  for (const auto& m : metrics_)
    std::printf("%-34s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (violations_ > 0) {
    std::fprintf(stderr, "perfbench: %llu correctness violation(s)\n",
                 static_cast<unsigned long long>(violations_));
    for (const auto& msg : messages_)
      std::fprintf(stderr, "  %s\n", msg.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t quantile(std::vector<std::uint64_t>& xs, double q) {
  if (xs.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(xs.size()));
  const std::size_t k = std::min(
      xs.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

}  // namespace perfbench
