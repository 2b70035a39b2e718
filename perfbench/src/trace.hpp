// In-memory spans of a traced run. Spans are recorded by the benchmark
// around its own calls into each layer's public functions (nothing inside
// the program is instrumented) and written out once, after the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reductions/scheme.hpp"

namespace perfbench {

/// One Runtime::submit: the benchmark's wall span plus the SchemeResult
/// parts the runtime reported for it (its child intervals).
struct SubmitSpan {
  std::uint64_t start_ns = 0;  ///< relative to the run's epoch
  std::uint64_t end_ns = 0;
  std::uint32_t client = 0;
  std::uint32_t site = 0;      ///< index into the workload's site ids
  std::uint64_t refs = 0;      ///< pattern references (operation count)
  sapp::SchemeResult result{};

  [[nodiscard]] std::uint64_t wall_ns() const { return end_ns - start_ns; }
  [[nodiscard]] double parts_s() const {
    return result.inspect_s + result.phases.total() + result.check_s;
  }
};

/// One direct call into a layer (characterize, decide_model, plan,
/// ThreadPool::run, flush, load).
struct CallSpan {
  std::string layer;
  std::uint32_t item = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Write every span as CSV (one row per span). Returns false on I/O error.
bool write_trace(const std::string& path, const std::vector<SubmitSpan>& submits,
                 const std::vector<CallSpan>& calls);

}  // namespace perfbench
