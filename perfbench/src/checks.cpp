#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

Reference make_reference(const sapp::ReductionInput& in,
                         std::span<double> scratch) {
  const sapp::AccessPattern& p = in.pattern;
  const std::span<double> seq = scratch.first(p.dim);
  std::fill(seq.begin(), seq.end(), 0.0);
  sapp::run_sequential(in, seq);

  Reference ref;
  ref.dim = p.dim;
  const auto& ptr = p.refs.row_ptr();
  const auto& idx = p.refs.indices();
  ref.touched.assign(idx.begin(), idx.end());
  std::sort(ref.touched.begin(), ref.touched.end());
  ref.touched.erase(std::unique(ref.touched.begin(), ref.touched.end()),
                    ref.touched.end());
  ref.touched.shrink_to_fit();

  std::vector<double> abs_sum(ref.touched.size(), 0.0);
  std::vector<std::uint32_t> count(ref.touched.size(), 0);
  for (std::size_t i = 0; i < p.refs.rows(); ++i) {
    const double s = sapp::iteration_scale(i, p.body_flops);
    for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j) {
      const auto k = static_cast<std::size_t>(
          std::lower_bound(ref.touched.begin(), ref.touched.end(), idx[j]) -
          ref.touched.begin());
      abs_sum[k] += std::abs(in.values[j] * s);
      ++count[k];
    }
  }
  ref.value.reserve(ref.touched.size());
  ref.bound.reserve(ref.touched.size());
  for (std::size_t k = 0; k < ref.touched.size(); ++k) {
    ref.value.push_back(seq[ref.touched[k]]);
    ref.bound.push_back(static_cast<double>(count[k]) * 0x1p-52 * abs_sum[k]);
  }
  return ref;
}

std::string check_output(const Reference& ref, std::span<const double> out) {
  char msg[160];
  if (out.size() != ref.dim) {
    std::snprintf(msg, sizeof msg, "output has %zu elements, expected %zu",
                  out.size(), ref.dim);
    return msg;
  }
  std::size_t k = 0;
  for (std::size_t e = 0; e < out.size(); ++e) {
    if (k < ref.touched.size() && ref.touched[k] == e) {
      // Written as !(d <= bound) so a NaN output fails too.
      if (!(std::abs(out[e] - ref.value[k]) <= ref.bound[k])) {
        std::snprintf(msg, sizeof msg,
                      "element %zu = %.17g, sequential %.17g (bound %.3g)", e,
                      out[e], ref.value[k], ref.bound[k]);
        return msg;
      }
      ++k;
    } else if (out[e] != 0.0) {
      std::snprintf(msg, sizeof msg,
                    "untouched element %zu = %.17g, expected 0", e, out[e]);
      return msg;
    }
  }
  return {};
}

std::string check_conservation(std::uint64_t lifetime_total,
                               std::uint64_t submissions) {
  if (lifetime_total == submissions) return {};
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "lifetime invocations %llu (live sites + evicted entries) != "
                "%llu submissions",
                static_cast<unsigned long long>(lifetime_total),
                static_cast<unsigned long long>(submissions));
  return msg;
}

std::string check_reloaded(std::size_t reloaded, std::size_t populated) {
  if (reloaded == populated) return {};
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "restart reloaded %zu decisions, the store was populated "
                "with %zu",
                reloaded, populated);
  return msg;
}

std::string check_live_bound(std::size_t max_live_running,
                             std::size_t live_after, std::size_t cap,
                             unsigned clients) {
  char msg[160];
  if (max_live_running > cap + clients) {
    std::snprintf(msg, sizeof msg,
                  "%zu live sites while running, cap %zu + %u clients",
                  max_live_running, cap, clients);
    return msg;
  }
  if (live_after > cap) {
    std::snprintf(msg, sizeof msg, "%zu live sites after the run, cap %zu",
                  live_after, cap);
    return msg;
  }
  return {};
}

std::string check_span_parts(double parts_s, std::uint64_t wall_ns) {
  // 1 ns of slack absorbs the rounding of five summed doubles; the parts
  // are themselves whole-nanosecond intervals nested inside the span.
  const double wall_s = static_cast<double>(wall_ns) * 1e-9;
  if (parts_s <= wall_s + 1e-9) return {};
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "SchemeResult parts %.9f s exceed the submit span %.9f s",
                parts_s, wall_s);
  return msg;
}

}  // namespace perfbench
