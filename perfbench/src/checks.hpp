// The benchmark's correctness checks. Each returns an empty string when the
// observed value is right and a description of the violation otherwise, so
// the self-test can feed every check a corrupted copy and see it refuse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "reductions/access_pattern.hpp"

namespace perfbench {

/// The sequential result of one input, kept only where it is non-trivial:
/// the touched elements, their run_sequential values and the reassociation
/// bound of each. Every untouched element must stay exactly 0.
struct Reference {
  std::size_t dim = 0;
  std::vector<std::uint32_t> touched;  ///< ascending element indices
  std::vector<double> value;           ///< run_sequential at `touched`
  /// Allowed |out - value|: n * 2^-52 * sum|contribution| for an element
  /// receiving n contributions — twice the first-order worst case of
  /// summing them in any order, so any scheme's reassociation passes and
  /// a lost, doubled or corrupted contribution does not.
  std::vector<double> bound;
};

/// Compute the reference of `in` apart from any Runtime (run_sequential
/// into `scratch`, which needs at least pattern.dim elements). Only
/// touched elements are kept, so that the benchmark's own memory stays
/// well below the program's and peak_rss_mb measures the program.
[[nodiscard]] Reference make_reference(const sapp::ReductionInput& in,
                                       std::span<double> scratch);

/// `out` (zero-filled before the submission) against `ref`.
[[nodiscard]] std::string check_output(const Reference& ref,
                                       std::span<const double> out);

/// Invocation conservation: the lifetime invocations the runtime and its
/// store account for must equal the benchmark's own submission count.
[[nodiscard]] std::string check_conservation(std::uint64_t lifetime_total,
                                             std::uint64_t submissions);

/// Restart: a Runtime built on a populated store must offer every
/// persisted decision for warm starts.
[[nodiscard]] std::string check_reloaded(std::size_t reloaded,
                                         std::size_t populated);

/// Site-table bound: at most `cap + clients` live sites while clients run
/// (one in-flight creation each), at most `cap` once they stopped.
[[nodiscard]] std::string check_live_bound(std::size_t max_live_running,
                                           std::size_t live_after,
                                           std::size_t cap, unsigned clients);

/// The parts a SchemeResult reports for one submission (inspect, init,
/// loop, merge, check) must fit inside the benchmark's wall span of it.
[[nodiscard]] std::string check_span_parts(double parts_s,
                                           std::uint64_t wall_ns);

}  // namespace perfbench
