// Self-test of the benchmark's correctness checks: each check must accept
// the genuine value from a real Runtime run and reject a deliberately
// corrupted copy of it, so that no check can pass vacuously.
#pragma once

#include <string>

namespace perfbench {

/// Runs every case, printing one PASS/FAIL line each. `store_dir` is a
/// scratch directory for a file-backed decision store (created, then
/// removed). Returns 0 when every case behaves, 1 otherwise.
int run_selftest(const std::string& store_dir);

}  // namespace perfbench
