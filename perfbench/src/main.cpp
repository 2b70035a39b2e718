// perfbench — the Runtime::submit benchmark binary. perfbench/run.py builds
// it and is the entry point; see perfbench/README.md.
//
//   perfbench --workload <serve_churn|fig3_steady|phase_shift> --seed <n>
//             --seconds <s> --trace <0|1> [--store <dir>] [--trace-out <csv>]
//   perfbench --workload serve_churn --seed <n> --populate --store <dir>
//   perfbench --selftest --store <dir>
//
// The last line of stdout is the JSON result of the run.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common.hpp"
#include "selftest.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--store <dir>] "
               "[--trace-out <csv>] [--populate] | --selftest --store <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool selftest = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--populate") {
      opt.populate = true;
    } else if (a == "--selftest") {
      selftest = true;
    } else if (!has_value) {
      return usage("missing value after an option");
    } else if (a == "--workload") {
      opt.workload = argv[++i];
    } else if (a == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      opt.trace = std::string_view(argv[++i]) == "1";
    } else if (a == "--store") {
      opt.store_dir = argv[++i];
    } else if (a == "--trace-out") {
      opt.trace_out = argv[++i];
    } else {
      return usage("unknown option");
    }
  }
  if (selftest) return perfbench::run_selftest(opt.store_dir);
  if (!perfbench::known_workload(opt.workload))
    return usage("unknown or missing --workload");
  if (!have_seed) return usage("missing --seed");
  const bool serve = opt.workload == "serve_churn";
  if (serve && opt.store_dir.empty())
    return usage("serve_churn needs --store (populated by --populate)");
  if (opt.populate)
    return serve ? perfbench::populate_serve_store(opt)
                 : usage("--populate is for serve_churn only");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  const perfbench::RunOutput out = perfbench::run_workload(opt);
  out.print();
  return 0;
}
