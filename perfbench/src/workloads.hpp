// The three benchmark workloads and the pieces of them the self-test reuses.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common.hpp"
#include "core/runtime.hpp"

namespace perfbench {

/// Whether `name` is one of serve_churn, fig3_steady, phase_shift.
[[nodiscard]] bool known_workload(std::string_view name);

/// One measured run of `opt.workload`: end-to-end metrics when
/// `opt.trace` is false, per-layer metrics when it is true.
[[nodiscard]] RunOutput run_workload(const Options& opt);

/// serve_churn's untimed first process: submit every site of the
/// population once against `opt.store_dir` (required) and exit, leaving
/// the store populated for the measured (restarted) process. Returns an
/// exit code.
int populate_serve_store(const Options& opt);

/// Runtime options every workload starts from: coefficients pinned to
/// MachineCoeffs::defaults() and the mispredict / time-drift feedback
/// parked (pattern-drift re-characterization stays on).
[[nodiscard]] sapp::RuntimeOptions pinned_parked_options(unsigned threads);

/// Lifetime invocations the runtime accounts for: every live site's
/// `lifetime_invocations()` plus the persisted entries of sites that are
/// not live. Call with no submission or eviction in flight.
[[nodiscard]] std::uint64_t accounted_invocations(sapp::Runtime& rt);

}  // namespace perfbench
