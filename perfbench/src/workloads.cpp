// The workload runners. Each one
//   1. generates its inputs from --seed and their sequential references
//      (untimed),
//   2. times set-up: Runtime construction until every site has finished
//      its first invocation,
//   3. drives Runtime::submit from closed-loop clients for --seconds,
//      timing each submission, and checks outputs on the way,
//   4. reports end-to-end metrics (untraced run) or per-layer metrics
//      from spans and runtime counters (traced run).
// Thread layout, input make-up and the reasons for each constant are in
// perfbench/README.md.
#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "checks.hpp"
#include "common/rng.hpp"
#include "core/characterize.hpp"
#include "core/decision.hpp"
#include "core/decision_store.hpp"
#include "reductions/registry.hpp"
#include "trace.hpp"
#include "workloads/paramsets.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

// ---- serve_churn shape -------------------------------------------------
constexpr std::size_t kServeSites = 3000;   // population
constexpr std::size_t kServeCap = 300;      // RuntimeOptions::max_sites
constexpr std::size_t kServeWindow = 150;   // hot working set (sites)
constexpr std::uint64_t kServeAdvanceEvery = 64;  // requests per advance
constexpr std::size_t kServeStep = 2;       // sites per window advance
constexpr std::size_t kServeVerifyStride = 32;  // sites with a reference
constexpr unsigned kServeClients = 2;
constexpr unsigned kServePool = 2;
constexpr double kServeCheckRate = 0.05;
constexpr std::size_t kServeLiveEvery = 8;  // site_count() sampling period
constexpr std::size_t kServeBlock = 1000;   // submissions per metric block

// ---- fig3_steady / phase_shift shape ------------------------------------
constexpr double kFig3Scale = 0.3;
constexpr std::size_t kSteadyWarmupRounds = 2;
constexpr std::size_t kVerifyEveryRounds = 8;
// Metric blocks of whole rounds, each ~1000 submissions so that every
// block's p99 has about ten samples beyond it.
constexpr std::size_t kSteadyBlockRounds = 48;       // x 21 rows
constexpr std::size_t kShiftBlockCycles = 14;        // x 12 rounds x 6 sites

// ---- traced-run direct calls --------------------------------------------
constexpr int kDirectReps = 3;
constexpr int kForkJoinWarmup = 200;
constexpr int kForkJoinCalls = 2000;

const sapp::MachineCoeffs& pinned_coeffs() {
  static const sapp::MachineCoeffs c = sapp::MachineCoeffs::defaults();
  return c;
}

/// The next submission a client makes.
struct Request {
  std::uint32_t site = 0;  // index into the workload's site ids
  const sapp::ReductionInput* in = nullptr;
  const Reference* ref = nullptr;  // check this submission's output when set
};

/// Latency figures of one block of consecutive submissions of a client.
struct Block {
  std::uint64_t duration_ns = 0;  ///< since the previous block's last one
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::size_t size = 0;
};

/// What one client saw during the measured window. Latencies are folded
/// into blocks as they complete, so the benchmark's own memory does not
/// grow with the program's throughput (peak_rss_mb stays the program's).
struct ClientLog {
  std::uint64_t submissions = 0;
  std::vector<std::uint64_t> open;  ///< latencies of the open block
  std::uint64_t open_since_ns = 0;  ///< end of the previous block
  std::vector<Block> blocks;
  std::vector<SubmitSpan> spans;  // traced runs only
  std::size_t max_live = 0;
  std::uint64_t verified = 0;
  std::uint64_t violations = 0;
  std::string first_violation;

  void close_block(std::uint64_t end_ns) {
    blocks.push_back({end_ns - open_since_ns, quantile(open, 0.50),
                      quantile(open, 0.99), open.size()});
    open.clear();
    open_since_ns = end_ns;
  }
};

struct Window {
  std::uint64_t epoch_ns = 0;
  std::vector<ClientLog> logs;

  [[nodiscard]] std::uint64_t submissions() const {
    std::uint64_t n = 0;
    for (const auto& l : logs) n += l.submissions;
    return n;
  }
};

/// One closed-loop client: the next request is sent only after the
/// previous one returned. `next(q)` fills q and returns true when q ends
/// a round; the client stops at the first round end past `deadline_ns`.
/// Every `block` submissions (whole rounds) close one metric block.
template <typename Next>
void client_loop(sapp::Runtime& rt, const std::vector<std::string>& ids,
                 Next& next, std::size_t max_dim, std::size_t block,
                 std::uint64_t epoch_ns, std::uint64_t deadline_ns, bool trace,
                 std::size_t live_every, unsigned client, ClientLog& log) {
  std::vector<double> buf(max_dim, 0.0);
  log.open.reserve(block);
  log.open_since_ns = epoch_ns;
  if (trace) log.spans.reserve(1u << 18);
  Request q;
  for (;;) {
    const bool round_end = next(q);
    const std::span<double> out(buf.data(), q.in->pattern.dim);
    std::fill(out.begin(), out.end(), 0.0);
    const std::uint64_t t0 = now_ns();
    const sapp::SchemeResult r = rt.submit(ids[q.site], *q.in, out);
    const std::uint64_t t1 = now_ns();
    ++log.submissions;
    log.open.push_back(t1 - t0);
    if (log.open.size() == block) log.close_block(t1);
    if (trace)
      log.spans.push_back({t0 - epoch_ns, t1 - epoch_ns, client, q.site,
                           q.in->pattern.num_refs(), r});
    if (live_every != 0 && log.submissions % live_every == 0)
      log.max_live = std::max(log.max_live, rt.site_count());
    if (q.ref != nullptr) {
      ++log.verified;
      const std::string err = check_output(*q.ref, out);
      if (!err.empty() && log.violations++ == 0)
        log.first_violation = ids[q.site] + ": " + err;
    }
    if (round_end && now_ns() >= deadline_ns) break;
  }
  // A run too short for one whole block reports its partial one; past
  // that, a trailing partial block is dropped.
  if (log.blocks.empty() && !log.open.empty()) log.close_block(now_ns());
}

/// The measured window: `clients` closed-loop clients released together,
/// each built from `make_next(client)`. One client runs on this thread.
template <typename MakeNext>
Window run_window(sapp::Runtime& rt, const std::vector<std::string>& ids,
                  std::size_t max_dim, std::size_t block, unsigned clients,
                  double seconds, bool trace, std::size_t live_every,
                  MakeNext&& make_next) {
  Window w;
  w.logs.resize(clients);
  const auto seconds_ns = static_cast<std::uint64_t>(seconds * 1e9);
  if (clients == 1) {
    auto next = make_next(0u);
    w.epoch_ns = now_ns();
    client_loop(rt, ids, next, max_dim, block, w.epoch_ns,
                w.epoch_ns + seconds_ns, trace, live_every, 0, w.logs[0]);
    return w;
  }
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto next = make_next(c);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      client_loop(rt, ids, next, max_dim, block, w.epoch_ns,
                  w.epoch_ns + seconds_ns, trace, live_every, c, w.logs[c]);
    });
  }
  w.epoch_ns = now_ns();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  return w;
}

/// Submit `count` requests from `next` on this thread (set-up, warm-up).
/// With `out` set, outputs whose request carries a reference are checked
/// into it; set-up passes nullptr so that its timing holds no checks.
template <typename Next>
void submit_sequence(sapp::Runtime& rt, const std::vector<std::string>& ids,
                     Next& next, std::size_t count, std::size_t max_dim,
                     RunOutput* out) {
  std::vector<double> buf(max_dim, 0.0);
  Request q;
  for (std::size_t k = 0; k < count; ++k) {
    (void)next(q);
    const std::span<double> o(buf.data(), q.in->pattern.dim);
    std::fill(o.begin(), o.end(), 0.0);
    (void)rt.submit(ids[q.site], *q.in, o);
    if (out == nullptr || q.ref == nullptr) continue;
    if (const std::string err = check_output(*q.ref, o); !err.empty())
      out->fail(ids[q.site] + ": " + err);
  }
}

/// Runtime counters read at the edges of the measured window.
struct Counters {
  std::uint64_t evictions = 0;
  std::uint64_t warm_offers = 0;
  std::uint64_t checks_run = 0;
  std::uint64_t flushes = 0;
  std::size_t live = 0;
};

Counters read_counters(sapp::Runtime& rt) {
  return {rt.evictions(), rt.warm_offers(), rt.checks_run(),
          rt.decision_store().flushes(), rt.site_count()};
}

/// Per-site adaptation counters (re-characterizations, switches) of the
/// live sites, read with no submission in flight.
using AdaptCounts = std::map<std::string, std::pair<unsigned, unsigned>>;

AdaptCounts read_adapt_counts(sapp::Runtime& rt) {
  AdaptCounts m;
  for (const auto& id : rt.site_ids()) {
    const sapp::AdaptiveReducer& r = rt.site(id);
    m[id] = {r.recharacterizations(), r.scheme_switches()};
  }
  return m;
}

/// Fold the client logs' correctness results into `out`.
void collect_violations(const Window& w, RunOutput& out) {
  for (const auto& l : w.logs) {
    if (l.violations == 0) continue;
    out.fail(l.first_violation);
    for (std::uint64_t k = 1; k < l.violations; ++k)
      out.fail("further output mismatch");
  }
}

std::uint64_t verified(const Window& w) {
  std::uint64_t n = 0;
  for (const auto& l : w.logs) n += l.verified;
  return n;
}

/// Throughput as the sum over clients of each client's median block rate:
/// a burst of host noise moves a few blocks, not the figure.
double block_throughput(const Window& w) {
  double rps = 0.0;
  for (const auto& l : w.logs) {
    std::vector<double> rates;
    for (const Block& b : l.blocks)
      rates.push_back(static_cast<double>(b.size) /
                      (static_cast<double>(b.duration_ns) * 1e-9));
    rps += median(rates);
  }
  return rps;
}

/// End-to-end metrics of an untraced run. Latency quantiles are the
/// median over every client's blocks of the block's own quantile.
void report_end_to_end(const Window& w, double setup_s, RunOutput& out) {
  std::vector<double> p50, p99;
  std::size_t block_size = 0;
  for (const auto& l : w.logs) {
    for (const Block& b : l.blocks) {
      p50.push_back(static_cast<double>(b.p50_ns) * 1e-3);
      p99.push_back(static_cast<double>(b.p99_ns) * 1e-3);
      block_size = std::max(block_size, b.size);
    }
  }
  const std::size_t beyond_p99 =
      block_size -
      static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(block_size)));
  out.note("samples " + std::to_string(w.submissions()) + " in " +
           std::to_string(p50.size()) + " blocks of " +
           std::to_string(block_size) + ", beyond each block's p99 " +
           std::to_string(beyond_p99) +
           (beyond_p99 < 10 ? " (fewer than 10: p99 is no tail here)" : ""));
  out.metric("throughput_rps", block_throughput(w), "req/s");
  out.metric("latency_p50_us", median(p50), "us");
  out.metric("latency_p99_us", median(p99), "us");
  out.metric("setup_s", setup_s, "s");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Everything a traced run needs besides the window itself.
struct LayerContext {
  sapp::Runtime* rt = nullptr;
  Counters before;
  AdaptCounts adapt_before;
  /// Patterns for the direct characterize / decide_model / plan calls.
  std::vector<const sapp::AccessPattern*> direct;
  /// serve_churn: the decision mix also counts persisted, non-live sites.
  bool mix_includes_store = false;
  std::string store_dir;
  std::string trace_out;
};

double span_us(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-3;
}

/// Per-layer metrics of a traced run (see README for each one's meaning).
void report_layers(const Window& w, LayerContext& lc, RunOutput& out) {
  sapp::Runtime& rt = *lc.rt;
  const Counters after = read_counters(rt);

  // ---- submit spans: SchemeResult parts against the wall span.
  std::vector<SubmitSpan> spans;
  for (const auto& l : w.logs)
    spans.insert(spans.end(), l.spans.begin(), l.spans.end());
  double inspect = 0, init = 0, loop = 0, merge = 0, check = 0, outside = 0;
  std::uint64_t refs = 0;
  std::size_t max_private = 0;
  for (const SubmitSpan& s : spans) {
    const sapp::SchemeResult& r = s.result;
    inspect += r.inspect_s;
    init += r.phases.init_s;
    loop += r.phases.loop_s;
    merge += r.phases.merge_s;
    check += r.check_s;
    outside += static_cast<double>(s.wall_ns()) * 1e-9 - s.parts_s();
    refs += s.refs;
    max_private = std::max(max_private, r.private_bytes);
    if (const std::string err = check_span_parts(s.parts_s(), s.wall_ns());
        !err.empty())
      out.fail("site " + std::to_string(s.site) + ": " + err);
  }
  const double n = spans.empty() ? 1.0 : static_cast<double>(spans.size());

  // ---- adaptation counters of the sites live at the end (a site revived
  // during the window restarts its counters, hence the clamp).
  std::uint64_t rechar = 0, switches = 0;
  for (const auto& [id, c] : read_adapt_counts(rt)) {
    const auto it = lc.adapt_before.find(id);
    const unsigned r0 = it == lc.adapt_before.end() ? 0 : it->second.first;
    const unsigned s0 = it == lc.adapt_before.end() ? 0 : it->second.second;
    rechar += c.first >= r0 ? c.first - r0 : c.first;
    switches += c.second >= s0 ? c.second - s0 : c.second;
  }

  // ---- decision mix and model accuracy over the live sites.
  std::array<std::uint64_t, 8> mix{};
  std::vector<double> pred_over_measured;
  std::unordered_set<std::string> live;
  for (const auto& id : rt.site_ids()) {
    live.insert(id);
    const sapp::AdaptiveReducer& r = rt.site(id);
    if (r.invocations() == 0) continue;
    ++mix[static_cast<std::size_t>(r.current())];
    double predicted = 0.0;
    for (const auto& cp : r.decision().predictions)
      if (cp.scheme == r.current()) predicted = cp.total();
    const double measured = median(r.phase_history());
    if (predicted > 0.0 && measured > 0.0)
      pred_over_measured.push_back(predicted / measured);
  }
  if (lc.mix_includes_store) {
    const sapp::DecisionCache persisted = rt.persisted_decisions();
    for (const auto& e : persisted.entries())
      if (live.count(e.site) == 0) ++mix[static_cast<std::size_t>(e.scheme)];
  }

  // ---- direct calls into characterize / decide_model / Scheme::plan.
  std::vector<CallSpan> calls;
  std::vector<double> char_us, decide_us, plan_us;
  const unsigned threads = rt.pool().size();
  for (int rep = 0; rep < kDirectReps; ++rep) {
    for (std::size_t k = 0; k < lc.direct.size(); ++k) {
      const sapp::AccessPattern& p = *lc.direct[k];
      const auto item = static_cast<std::uint32_t>(k);
      std::uint64_t t0 = now_ns();
      const sapp::PatternStats stats = sapp::characterize(p, threads);
      std::uint64_t t1 = now_ns();
      calls.push_back({"characterize", item, t0 - w.epoch_ns, t1 - w.epoch_ns});
      char_us.push_back(span_us(t0, t1));

      t0 = now_ns();
      const sapp::Decision d =
          sapp::decide_model(stats, p.body_flops, rt.coeffs());
      t1 = now_ns();
      calls.push_back({"decide", item, t0 - w.epoch_ns, t1 - w.epoch_ns});
      decide_us.push_back(span_us(t0, t1));

      // The runtime's own guard: lw is never adopted for an illegal loop.
      const sapp::SchemeKind kind =
          d.recommended == sapp::SchemeKind::kLocalWrite &&
                  !p.iteration_replication_legal
              ? sapp::SchemeKind::kSelective
              : d.recommended;
      const auto scheme = sapp::make_scheme(kind);
      t0 = now_ns();
      const auto plan = scheme->plan(p, threads);
      t1 = now_ns();
      calls.push_back({"plan", item, t0 - w.epoch_ns, t1 - w.epoch_ns});
      plan_us.push_back(span_us(t0, t1));
    }
  }

  // ---- an empty fork-join region on the workload's (now idle) pool.
  std::vector<double> fork_join_us;
  for (int i = 0; i < kForkJoinWarmup; ++i) rt.pool().run([](unsigned) {});
  for (int i = 0; i < kForkJoinCalls; ++i) {
    const std::uint64_t t0 = now_ns();
    rt.pool().run([](unsigned) {});
    const std::uint64_t t1 = now_ns();
    calls.push_back({"fork_join", static_cast<std::uint32_t>(i),
                     t0 - w.epoch_ns, t1 - w.epoch_ns});
    fork_join_us.push_back(span_us(t0, t1));
  }

  // ---- decision store: a timed flush, the shard bytes, a timed reload.
  std::uint64_t t0 = now_ns();
  (void)rt.flush_decisions();
  std::uint64_t t1 = now_ns();
  calls.push_back({"store_flush", 0, t0 - w.epoch_ns, t1 - w.epoch_ns});
  const double flush_s = static_cast<double>(t1 - t0) * 1e-9;
  double store_bytes = 0.0, load_s = 0.0;
  if (!lc.store_dir.empty()) {
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(lc.store_dir, ec))
      if (e.is_regular_file(ec))
        store_bytes += static_cast<double>(e.file_size(ec));
    sapp::ShardedDecisionStore reload(sapp::DecisionStoreOptions{
        .dir = lc.store_dir,
        .shards = sapp::RuntimeOptions{}.decision_cache_shards});
    t0 = now_ns();
    (void)reload.load();
    t1 = now_ns();
    calls.push_back({"store_load", 0, t0 - w.epoch_ns, t1 - w.epoch_ns});
    load_s = static_cast<double>(t1 - t0) * 1e-9;
  }

  const double subs = static_cast<double>(spans.size());
  out.metric("runtime.submissions", subs, "count");
  out.metric("runtime.outside_scheme_s", outside / n, "s");
  out.metric("runtime.sites_created",
             static_cast<double>(after.live + after.evictions) -
                 static_cast<double>(lc.before.live + lc.before.evictions),
             "count");
  out.metric("runtime.evictions",
             static_cast<double>(after.evictions - lc.before.evictions),
             "count");
  out.metric("runtime.warm_offers",
             static_cast<double>(after.warm_offers - lc.before.warm_offers),
             "count");
  out.metric("adaptive.inspect_s", inspect / n, "s");
  out.metric("adaptive.recharacterizations", static_cast<double>(rechar),
             "count");
  out.metric("adaptive.scheme_switches", static_cast<double>(switches),
             "count");
  out.metric("characterize.call_us", median(char_us), "us");
  out.metric("decide.call_us", median(decide_us), "us");
  out.metric("plan.call_us", median(plan_us), "us");
  out.metric("cost_model.pred_over_measured", median(pred_over_measured),
             "ratio");
  out.metric("pool.fork_join_us", median(fork_join_us), "us");
  out.metric("scheme.init_s", init / n, "s");
  out.metric("scheme.loop_s", loop / n, "s");
  out.metric("scheme.merge_s", merge / n, "s");
  out.metric("scheme.refs", static_cast<double>(refs), "count");
  out.metric("scheme.private_bytes", static_cast<double>(max_private), "B");
  for (const sapp::SchemeKind k :
       {sapp::SchemeKind::kSeq, sapp::SchemeKind::kRep,
        sapp::SchemeKind::kLinked, sapp::SchemeKind::kSelective,
        sapp::SchemeKind::kLocalWrite, sapp::SchemeKind::kHash})
    out.metric("scheme.sites_" + std::string(sapp::to_string(k)),
               static_cast<double>(mix[static_cast<std::size_t>(k)]),
               "count");
  out.metric("check.check_s", check / n, "s");
  out.metric("check.checks_run",
             static_cast<double>(after.checks_run - lc.before.checks_run),
             "count");
  out.metric("store.flushes",
             static_cast<double>(after.flushes - lc.before.flushes), "count");
  out.metric("store.bytes", store_bytes, "B");
  out.metric("store.flush_s", flush_s, "s");
  out.metric("store.load_s", load_s, "s");
  out.metric("trace.throughput_rps", block_throughput(w), "req/s");

  if (!lc.trace_out.empty()) {
    if (write_trace(lc.trace_out, spans, calls))
      out.note("spans written to " + lc.trace_out);
    else
      out.note("could not write spans to " + lc.trace_out);
  }
}

// ======================================================== serve_churn

struct ServePopulation {
  std::vector<sapp::ReductionInput> inputs;
  std::vector<std::string> ids;
  std::vector<Reference> refs;  // site i has refs[i / stride] when i % stride == 0
  std::size_t max_dim = 0;
};

ServePopulation make_population(std::uint64_t seed, bool with_refs) {
  ServePopulation s;
  s.inputs.reserve(kServeSites);
  for (std::size_t i = 0; i < kServeSites; ++i) {
    sapp::workloads::Workload w =
        sapp::workloads::make_serving_site(i, 1.0, seed);
    s.ids.push_back(w.input.pattern.loop_id);
    s.max_dim = std::max(s.max_dim, w.input.pattern.dim);
    s.inputs.push_back(std::move(w.input));
  }
  if (with_refs) {
    std::vector<double> scratch(s.max_dim);
    for (std::size_t i = 0; i < kServeSites; i += kServeVerifyStride)
      s.refs.push_back(make_reference(s.inputs[i], scratch));
  }
  return s;
}

sapp::RuntimeOptions serve_options(const std::string& dir) {
  sapp::RuntimeOptions o = pinned_parked_options(kServePool);
  o.max_sites = kServeCap;
  o.decision_cache_dir = dir;
  o.adaptive.check.enabled = true;
  o.adaptive.check.sample_rate = kServeCheckRate;
  return o;
}

/// Submits every site once, in index order.
auto every_site_once(const ServePopulation& s) {
  return [&s, k = std::uint32_t{0}](Request& q) mutable {
    q = {k, &s.inputs[k], nullptr};
    ++k;
    return true;
  };
}

RunOutput run_serve_churn(const Options& opt) {
  RunOutput out;
  const ServePopulation s = make_population(opt.seed, /*with_refs=*/true);

  // Set-up: a restart. The constructor reloads the store the populating
  // process left behind; then every site of the population is revived
  // once (warm starts, and evictions past the cap).
  const std::uint64_t t0 = now_ns();
  auto rt = std::make_unique<sapp::Runtime>(serve_options(opt.store_dir));
  const std::size_t reloaded = rt->warm_entries();
  auto once = every_site_once(s);
  submit_sequence(*rt, s.ids, once, kServeSites, s.max_dim, nullptr);
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  if (const std::string err = check_reloaded(reloaded, kServeSites);
      !err.empty())
    out.fail(err);

  LayerContext lc;
  lc.rt = rt.get();
  lc.before = read_counters(*rt);
  if (opt.trace) lc.adapt_before = read_adapt_counts(*rt);

  // Sliding hot window: its base walks the population as the shared
  // request counter advances; each request picks a site inside it.
  std::atomic<std::uint64_t> request{0};
  const auto make_next = [&](unsigned client) {
    return [&, rng = sapp::Rng(opt.seed * 0x9E3779B97F4A7C15ull + client +
                               1)](Request& q) mutable {
      const std::uint64_t r = request.fetch_add(1, std::memory_order_relaxed);
      const std::size_t base = static_cast<std::size_t>(
          (r / kServeAdvanceEvery) * kServeStep % kServeSites);
      const std::size_t idx = (base + rng.below(kServeWindow)) % kServeSites;
      q.site = static_cast<std::uint32_t>(idx);
      q.in = &s.inputs[idx];
      q.ref = idx % kServeVerifyStride == 0
                  ? &s.refs[idx / kServeVerifyStride]
                  : nullptr;
      return true;
    };
  };
  const Window w = run_window(*rt, s.ids, s.max_dim, kServeBlock,
                              kServeClients, opt.seconds, opt.trace,
                              kServeLiveEvery, make_next);
  collect_violations(w, out);

  // Quiesce: a creation racing the cap can leave one extra site per
  // client; the maintenance sweep trims it on its next tick.
  std::this_thread::sleep_for(std::chrono::duration<double>(
      4 * sapp::RuntimeOptions{}.flush_interval_s));
  std::size_t max_live = 0;
  for (const auto& l : w.logs) max_live = std::max(max_live, l.max_live);
  const std::size_t live_after = rt->site_count();
  if (const std::string err =
          check_live_bound(max_live, live_after, kServeCap, kServeClients);
      !err.empty())
    out.fail(err);
  // Populating pass + set-up pass + the window, every one counted.
  const std::uint64_t submitted = 2 * kServeSites + w.submissions();
  if (const std::string err =
          check_conservation(accounted_invocations(*rt), submitted);
      !err.empty())
    out.fail(err);

  out.attempted = w.submissions();
  out.note("serve_churn: " + std::to_string(kServeSites) + " sites, cap " +
           std::to_string(kServeCap) + ", " + std::to_string(kServeClients) +
           " clients, pool " + std::to_string(kServePool) + ", " +
           std::to_string(verified(w)) + " outputs checked, max live " +
           std::to_string(max_live));
  if (opt.trace) {
    for (std::size_t i = 0; i < kServeSites; i += kServeVerifyStride)
      lc.direct.push_back(&s.inputs[i].pattern);
    lc.mix_includes_store = true;
    lc.store_dir = opt.store_dir;
    lc.trace_out = opt.trace_out;
    report_layers(w, lc, out);
  } else {
    report_end_to_end(w, setup_s, out);
  }
  // The Runtime's destructor stops the maintenance thread and drains the
  // store; the caller removes the directory only after this returns.
  rt.reset();
  return out;
}

// ============================================ fig3_steady / phase_shift

struct Fig3Inputs {
  std::vector<sapp::workloads::Fig3Row> rows;
  std::vector<Reference> refs;  // one per row
  std::size_t max_dim = 0;
};

Fig3Inputs make_fig3_inputs(std::uint64_t seed) {
  Fig3Inputs f;
  f.rows = sapp::workloads::fig3_rows(kFig3Scale, seed);
  for (const auto& r : f.rows)
    f.max_dim = std::max(f.max_dim, r.workload.input.pattern.dim);
  std::vector<double> scratch(f.max_dim);
  for (const auto& r : f.rows)
    f.refs.push_back(make_reference(r.workload.input, scratch));
  return f;
}

RunOutput run_fig3_steady(const Options& opt) {
  RunOutput out;
  const Fig3Inputs f = make_fig3_inputs(opt.seed);
  const std::size_t nrows = f.rows.size();
  // Every row of an app carries the same "<App>/<loop>" tag, so the row
  // index goes into the site id: one site per row.
  std::vector<std::string> ids;
  for (std::size_t k = 0; k < nrows; ++k)
    ids.push_back(f.rows[k].workload.input.pattern.loop_id + "#" +
                  std::to_string(k));

  // Round-robin over the rows; `verify_every` rounds check every output.
  const auto round_robin = [&](std::size_t verify_every) {
    return [&, verify_every, k = std::size_t{0}](Request& q) mutable {
      const std::size_t round = k / nrows, i = k % nrows;
      ++k;
      q = {static_cast<std::uint32_t>(i), &f.rows[i].workload.input,
           round % verify_every == 0 ? &f.refs[i] : nullptr};
      return i + 1 == nrows;
    };
  };

  const unsigned threads = usable_cpus();
  const std::uint64_t t0 = now_ns();
  sapp::Runtime rt(pinned_parked_options(threads));
  auto first = round_robin(1);
  submit_sequence(rt, ids, first, nrows, f.max_dim, nullptr);
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  auto warm = round_robin(1);  // warm-up checks every row
  submit_sequence(rt, ids, warm, kSteadyWarmupRounds * nrows, f.max_dim,
                  &out);

  LayerContext lc;
  lc.rt = &rt;
  lc.before = read_counters(rt);
  if (opt.trace) lc.adapt_before = read_adapt_counts(rt);
  const Window w = run_window(
      rt, ids, f.max_dim, kSteadyBlockRounds * nrows, 1, opt.seconds,
      opt.trace, 0, [&](unsigned) { return round_robin(kVerifyEveryRounds); });
  collect_violations(w, out);

  out.attempted = w.submissions();
  out.note("fig3_steady: " + std::to_string(nrows) + " sites, 1 client, pool " +
           std::to_string(threads) + ", " + std::to_string(verified(w)) +
           " outputs checked");
  if (opt.trace) {
    for (const auto& r : f.rows) lc.direct.push_back(&r.workload.input.pattern);
    lc.trace_out = opt.trace_out;
    report_layers(w, lc, out);
  } else {
    report_end_to_end(w, setup_s, out);
  }
  return out;
}

RunOutput run_phase_shift(const Options& opt) {
  RunOutput out;
  const Fig3Inputs f = make_fig3_inputs(opt.seed);
  // One site per application, under the generator's own "<App>/<loop>".
  std::vector<std::string> ids;
  std::vector<std::vector<std::size_t>> app_rows;
  for (std::size_t k = 0; k < f.rows.size(); ++k) {
    const std::string& id = f.rows[k].workload.input.pattern.loop_id;
    const auto it = std::find(ids.begin(), ids.end(), id);
    if (it == ids.end()) {
      ids.push_back(id);
      app_rows.push_back({k});
    } else {
      app_rows[static_cast<std::size_t>(it - ids.begin())].push_back(k);
    }
  }
  const std::size_t napps = ids.size();
  // Rounds after which every app is back at its first row.
  std::size_t cycle_rounds = 1;
  for (const auto& rows : app_rows)
    cycle_rounds = std::lcm(cycle_rounds, rows.size());

  // Round r submits, for every app, row r mod rows(app): every invocation
  // of a site brings it a new input.
  const auto rotation = [&](std::size_t first_round,
                            std::size_t verify_every) {
    return [&, verify_every, k = first_round * napps](Request& q) mutable {
      const std::size_t round = k / napps, a = k % napps;
      ++k;
      const auto& rows = app_rows[a];
      const std::size_t row = rows[round % rows.size()];
      q = {static_cast<std::uint32_t>(a), &f.rows[row].workload.input,
           round % verify_every == 0 ? &f.refs[row] : nullptr};
      return a + 1 == napps;
    };
  };

  const unsigned threads = usable_cpus();
  const std::uint64_t t0 = now_ns();
  sapp::Runtime rt(pinned_parked_options(threads));
  auto first = rotation(0, 1);
  submit_sequence(rt, ids, first, napps, f.max_dim, nullptr);
  const double setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  // Warm-up: one whole cycle, every output checked, so every row has
  // been re-characterized into and verified before the window opens.
  auto warm = rotation(1, 1);
  submit_sequence(rt, ids, warm, cycle_rounds * napps, f.max_dim, &out);

  LayerContext lc;
  lc.rt = &rt;
  lc.before = read_counters(rt);
  if (opt.trace) lc.adapt_before = read_adapt_counts(rt);
  const Window w = run_window(
      rt, ids, f.max_dim, kShiftBlockCycles * cycle_rounds * napps, 1,
      opt.seconds, opt.trace, 0, [&](unsigned) {
        return rotation(1 + cycle_rounds, kVerifyEveryRounds);
      });
  collect_violations(w, out);

  out.attempted = w.submissions();
  out.note("phase_shift: " + std::to_string(napps) +
           " sites, a new input every invocation, 1 client, pool " +
           std::to_string(threads) + ", " + std::to_string(verified(w)) +
           " outputs checked");
  if (opt.trace) {
    for (const auto& r : f.rows) lc.direct.push_back(&r.workload.input.pattern);
    lc.trace_out = opt.trace_out;
    report_layers(w, lc, out);
  } else {
    report_end_to_end(w, setup_s, out);
  }
  return out;
}

}  // namespace

bool known_workload(std::string_view name) {
  return name == "serve_churn" || name == "fig3_steady" ||
         name == "phase_shift";
}

sapp::RuntimeOptions pinned_parked_options(unsigned threads) {
  sapp::RuntimeOptions o;
  o.threads = threads;
  o.coeffs = &pinned_coeffs();
  // Parked as `sapp_repro serving` parks them: measured times under a
  // shared pool carry queueing noise, and armed mispredict feedback never
  // settles on some Fig. 3 rows (see perfbench/README.md).
  o.adaptive.mispredict_patience = 1 << 30;
  o.adaptive.monitor.time_drift_patience = 1 << 30;
  return o;
}

std::uint64_t accounted_invocations(sapp::Runtime& rt) {
  std::uint64_t total = 0;
  std::unordered_set<std::string> live;
  for (const auto& id : rt.site_ids()) {
    live.insert(id);
    total += rt.site(id).lifetime_invocations();
  }
  const sapp::DecisionCache persisted = rt.persisted_decisions();
  for (const auto& e : persisted.entries())
    if (live.count(e.site) == 0) total += e.invocations;
  return total;
}

int populate_serve_store(const Options& opt) {
  const ServePopulation s = make_population(opt.seed, /*with_refs=*/false);
  {
    sapp::Runtime rt(serve_options(opt.store_dir));
    auto once = every_site_once(s);
    submit_sequence(rt, s.ids, once, kServeSites, s.max_dim, nullptr);
  }  // the destructor drains every learned decision into the shard files
  std::printf("populated %zu sites into %s\n", kServeSites,
              opt.store_dir.c_str());
  return 0;
}

RunOutput run_workload(const Options& opt) {
  if (opt.workload == "serve_churn") return run_serve_churn(opt);
  if (opt.workload == "fig3_steady") return run_fig3_steady(opt);
  return run_phase_shift(opt);
}

}  // namespace perfbench
