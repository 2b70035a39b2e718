#include "selftest.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

class Tally {
 public:
  /// `err` is a check's verdict; `want_reject` says which verdict is right.
  void expect(const char* name, const std::string& err, bool want_reject) {
    const bool rejected = !err.empty();
    const bool ok = rejected == want_reject;
    if (!ok) ++bad_;
    std::printf("%s  %s%s%s\n", ok ? "PASS" : "FAIL", name,
                rejected ? " -> " : "", err.c_str());
  }
  [[nodiscard]] int exit_code() const { return bad_ == 0 ? 0 : 1; }

 private:
  int bad_ = 0;
};

/// First contribution of `in` with a non-zero value: (element, amount).
std::pair<std::size_t, double> first_contribution(
    const sapp::ReductionInput& in) {
  const auto& ptr = in.pattern.refs.row_ptr();
  const auto& idx = in.pattern.refs.indices();
  for (std::size_t i = 0; i < in.pattern.refs.rows(); ++i)
    for (std::uint64_t j = ptr[i]; j < ptr[i + 1]; ++j)
      if (in.values[j] != 0.0)
        return {idx[j], in.values[j] * sapp::iteration_scale(
                                           i, in.pattern.body_flops)};
  return {0, 0.0};
}

/// Output check: genuine outputs of real submissions pass; a lost or a
/// doubled contribution, a NaN, a write to an untouched element and a
/// short output are each rejected.
void output_cases(Tally& t) {
  std::vector<sapp::ReductionInput> inputs;
  for (std::size_t i = 0; i < 4; ++i)
    inputs.push_back(sapp::workloads::make_serving_site(i, 1.0, 11).input);
  inputs.push_back(sapp::workloads::make_irreg(4096, 1024, 8192, 3).input);
  inputs.push_back(sapp::workloads::make_spice(33725, 20, 5).input);

  sapp::Runtime rt(pinned_parked_options(2));
  for (const auto& in : inputs) {
    std::vector<double> scratch(in.pattern.dim);
    const Reference ref = make_reference(in, scratch);
    std::vector<double> out(in.pattern.dim, 0.0);
    (void)rt.submit(in, out);
    const std::string& id = in.pattern.loop_id;
    std::printf("-- output of %s (%zu elements, %zu touched)\n", id.c_str(),
                ref.dim, ref.touched.size());
    t.expect("genuine output", check_output(ref, out), false);

    const auto [e, c] = first_contribution(in);
    std::vector<double> bad = out;
    bad[e] -= c;
    t.expect("lost contribution", check_output(ref, bad), true);
    bad = out;
    bad[e] += c;
    t.expect("doubled contribution", check_output(ref, bad), true);
    bad = out;
    bad[e] = std::numeric_limits<double>::quiet_NaN();
    t.expect("NaN element", check_output(ref, bad), true);
    if (ref.touched.size() < ref.dim) {
      std::size_t untouched = 0;
      while (std::binary_search(ref.touched.begin(), ref.touched.end(),
                                static_cast<std::uint32_t>(untouched)))
        ++untouched;
      bad = out;
      bad[untouched] = 1e-300;
      t.expect("write to untouched element", check_output(ref, bad), true);
    }
    t.expect("short output",
             check_output(ref, std::span<const double>(out).first(ref.dim - 1)),
             true);
  }
}

/// Span check: the parts of real submissions fit their wall spans; a copy
/// whose loop or inspect time is inflated past the span is rejected.
void span_cases(Tally& t) {
  const sapp::ReductionInput in =
      sapp::workloads::make_irreg(8192, 2048, 16384, 4).input;
  sapp::Runtime rt(pinned_parked_options(2));
  std::vector<double> out(in.pattern.dim, 0.0);
  std::string worst;
  for (int k = 0; k < 20; ++k) {
    std::fill(out.begin(), out.end(), 0.0);
    const std::uint64_t t0 = now_ns();
    const sapp::SchemeResult r = rt.submit(in, out);
    const std::uint64_t t1 = now_ns();
    const SubmitSpan s{0, t1 - t0, 0, 0, in.pattern.num_refs(), r};
    if (const std::string err = check_span_parts(s.parts_s(), s.wall_ns());
        !err.empty())
      worst = err;
    if (k != 19) continue;
    t.expect("genuine span parts (20 submissions)", worst, false);
    SubmitSpan bad = s;
    bad.result.phases.loop_s += static_cast<double>(s.wall_ns()) * 1e-9;
    t.expect("inflated loop time", check_span_parts(bad.parts_s(), bad.wall_ns()),
             true);
    bad = s;
    bad.result.inspect_s += 2e-9 + static_cast<double>(s.wall_ns()) * 1e-9 -
                            s.parts_s();
    t.expect("inspect time 1 ns past the span",
             check_span_parts(bad.parts_s(), bad.wall_ns()), true);
  }
}

/// Store reload, site-table bound and invocation conservation on a real
/// churn: a populating Runtime, then a restarted one driven by two
/// clients over more sites than its cap.
void churn_cases(Tally& t, const std::string& dir) {
  constexpr std::size_t kSites = 40, kCap = 8, kPerClient = 200;
  constexpr unsigned kClients = 2;
  std::vector<sapp::ReductionInput> inputs;
  std::size_t max_dim = 0;
  for (std::size_t i = 0; i < kSites; ++i) {
    inputs.push_back(sapp::workloads::make_serving_site(i, 1.0, 5).input);
    max_dim = std::max(max_dim, inputs.back().pattern.dim);
  }
  sapp::RuntimeOptions o = pinned_parked_options(2);
  o.max_sites = kCap;
  o.decision_cache_dir = dir;
  o.adaptive.check.enabled = true;
  o.adaptive.check.sample_rate = 0.05;
  std::vector<double> buf(max_dim);
  {
    sapp::Runtime populate(o);
    for (const auto& in : inputs)
      (void)populate.submit(in, std::span<double>(buf.data(), in.pattern.dim));
  }

  auto rt = std::make_unique<sapp::Runtime>(o);
  const std::size_t reloaded = rt->warm_entries();
  std::printf("-- restart reloaded %zu decisions\n", reloaded);
  t.expect("genuine reload count", check_reloaded(reloaded, kSites), false);
  t.expect("reload count one short", check_reloaded(reloaded - 1, kSites),
           true);
  t.expect("reload count one over", check_reloaded(reloaded + 1, kSites),
           true);

  std::atomic<std::size_t> max_live{0};
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      sapp::Rng rng(100 + c);
      std::vector<double> b(max_dim);
      for (std::size_t k = 0; k < kPerClient; ++k) {
        const auto& in = inputs[rng.below(kSites)];
        (void)rt->submit(in, std::span<double>(b.data(), in.pattern.dim));
        std::size_t seen = max_live.load();
        const std::size_t live = rt->site_count();
        while (live > seen && !max_live.compare_exchange_weak(seen, live)) {
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  std::this_thread::sleep_for(std::chrono::duration<double>(
      4 * sapp::RuntimeOptions{}.flush_interval_s));
  const std::size_t live_after = rt->site_count();
  std::printf("-- churn: max live %zu, live after %zu, cap %zu, evictions %llu\n",
              max_live.load(), live_after, kCap,
              static_cast<unsigned long long>(rt->evictions()));
  t.expect("genuine live-site bound",
           check_live_bound(max_live.load(), live_after, kCap, kClients),
           false);
  t.expect("live sites over cap + clients while running",
           check_live_bound(kCap + kClients + 1, live_after, kCap, kClients),
           true);
  t.expect("live sites over cap after the run",
           check_live_bound(max_live.load(), kCap + 1, kCap, kClients), true);

  const std::uint64_t submitted = kSites + kClients * kPerClient;
  const std::uint64_t accounted = accounted_invocations(*rt);
  std::printf("-- accounted %llu invocations for %llu submissions\n",
              static_cast<unsigned long long>(accounted),
              static_cast<unsigned long long>(submitted));
  t.expect("genuine conservation", check_conservation(accounted, submitted),
           false);
  t.expect("an invocation lost", check_conservation(accounted - 1, submitted),
           true);
  t.expect("an invocation counted twice",
           check_conservation(accounted + 1, submitted), true);
  rt.reset();  // stop the maintenance thread before the directory goes
}

}  // namespace

int run_selftest(const std::string& store_dir) {
  if (store_dir.empty()) {
    std::fprintf(stderr, "perfbench: --selftest needs --store <dir>\n");
    return 2;
  }
  Tally t;
  output_cases(t);
  span_cases(t);
  const std::string dir = store_dir + "/selftest-store";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  churn_cases(t, dir);
  std::filesystem::remove_all(dir, ec);
  std::printf("%s\n", t.exit_code() == 0 ? "selftest: all cases behave"
                                         : "selftest: FAILED");
  return t.exit_code();
}

}  // namespace perfbench
