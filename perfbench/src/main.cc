// perfbench: update-to-visible latency of the WebdamLog runtime on four
// seeded workloads, with an outside-in per-layer trace. See README.md.
//
//   perfbench --workload wepic|social|large_view|cluster_tcp --seed N
//             --seconds S --trace 0|1 [--tiny] [--workdir DIR]
//
// Prints a human-readable report, then one JSON line with every metric
// of the mode (end-to-end with --trace 0, per-layer with --trace 1):
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_PEERD
#define PERFBENCH_PEERD ""
#endif

namespace perfbench {
namespace {

// A failed op enters the latency statistics at no less than this, so a
// failure can never improve a latency figure.
constexpr double kFailureMs = 10'000.0;
// Trace runs alternate untraced and traced blocks of this many ops, so
// the overhead comparison sees the same state drift on both sides.
constexpr size_t kTraceBlock = 16;
// The closed loop and the burst are cut into blocks of at least this
// many seconds (whole op-schedule cycles). Unless the workload runs
// processes of its own, each block runs the client on the next CPU: on a
// shared host, other tenants slow single cores down for seconds at a
// time, and a run that sat on one such core throughout read slow as a
// whole.
constexpr double kBlockSeconds = 0.25;
// Means and rates are reported as the median over this many groups of
// consecutive blocks of each group's mean (a median of means): a slow
// stretch of the host moves one group, not the figure.
constexpr int kGroups = 5;

struct OpRecord {
  OpClass cls;
  double ms;
  bool ok;
  bool traced;
  int block;
};

/// Moves this thread to CPU `i` modulo the CPU count.
void PinToCpu(int i) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(i % std::thread::hardware_concurrency(), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Splits a phase into blocks: a new block starts at the first cycle
/// boundary after kBlockSeconds.
class Blocks {
 public:
  Blocks(size_t cycle, bool rotate)
      : cycle_(cycle), rotate_(rotate), start_(NowNs()) {}
  /// Block of the op about to run, `done` ops into the phase.
  int Next(size_t done) {
    if (done % cycle_ == 0 && (NowNs() - start_) / 1e9 >= kBlockSeconds) {
      ++block_;
      start_ = NowNs();
      if (rotate_) PinToCpu(block_);
    }
    return block_;
  }

 private:
  size_t cycle_;
  bool rotate_;
  int64_t start_;
  int block_ = 0;
};

/// Median over kGroups groups of consecutive blocks of sum(num) /
/// sum(den) within the group. `block` is non-decreasing.
double MedianOfMeans(const std::vector<int>& block,
                     const std::vector<double>& num,
                     const std::vector<double>& den) {
  if (block.empty()) return 0.0;
  const int blocks = block.back() + 1;
  std::vector<double> nsum(kGroups), dsum(kGroups);
  for (size_t i = 0; i < block.size(); ++i) {
    const int g = block[i] * kGroups / blocks;
    nsum[g] += num[i];
    dsum[g] += den[i];
  }
  std::vector<double> means;
  for (int g = 0; g < kGroups; ++g) {
    if (dsum[g] > 0) means.push_back(nsum[g] / dsum[g]);
  }
  return Percentile(means, 0.5);
}

struct Metric {
  double value;
  std::string unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--workload" && (v = next())) {
      args->workload = v;
    } else if (a == "--seed" && (v = next())) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds" && (v = next())) {
      args->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = next())) {
      args->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--tiny") {
      args->tiny = true;
    } else if (a == "--workdir" && (v = next())) {
      args->workdir = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

std::vector<double> Latencies(const std::vector<OpRecord>& ops,
                              const std::function<bool(const OpRecord&)>& pick) {
  std::vector<double> out;
  for (const OpRecord& r : ops) {
    if (pick(r)) out.push_back(r.ok ? r.ms : std::max(r.ms, kFailureMs));
  }
  return out;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Run(const Args& args) {
  // These switch code paths process-wide; a run under them would not
  // measure the default runtime.
  for (const char* var :
       {"WDL_EVAL_THREADS", "WDL_WORKER_THREADS", "WDL_QUERY_DEMAND"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  Config config;
  config.seed = args.seed;
  config.tiny = args.tiny;
  config.peerd = PERFBENCH_PEERD;
  config.workdir = args.workdir;
  std::function<std::unique_ptr<Workload>(const Config&)> make;
  if (args.workload == "wepic") make = MakeWepic;
  if (args.workload == "social") make = MakeSocial;
  if (args.workload == "large_view") make = MakeLargeView;
  if (args.workload == "cluster_tcp") make = MakeClusterTcp;
  if (!make) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }

  Tracer& tracer = GlobalTracer();
  // Set-up runs several times, each on a fresh object and (as the blocks
  // below) on the next CPU, and the median is reported: at least three
  // times and a second in all, at most nine. The ops run on the last one.
  // A traced or tiny run sets up once.
  const int max_setups = args.trace || args.tiny ? 1 : 9;
  const int min_setups = std::min(3, max_setups);
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  double setup_total = 0;
  while (static_cast<int>(setup_s.size()) < max_setups &&
         (static_cast<int>(setup_s.size()) < min_setups || setup_total < 1.0)) {
    w.reset();
    w = make(config);
    if (w->rotate_cpus()) PinToCpu(static_cast<int>(setup_s.size()));
    tracer.on = args.trace;
    const int64_t t0 = NowNs();
    Status st = w->Setup();
    setup_s.push_back((NowNs() - t0) / 1e9);
    setup_total += setup_s.back();
    tracer.on = false;
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s set-up failed: %s\n",
                   args.workload.c_str(), st.ToString().c_str());
      return 1;
    }
  }

  // Warm-up: a short stretch of the op stream, checked but not timed,
  // so allocator, caches and the host's scheduler reach steady state.
  const size_t cycle = w->cycle_length();
  size_t warmup_ops = 0, warmup_failed = 0;
  const int64_t warmup_start = NowNs();
  while (!args.tiny && ((NowNs() - warmup_start) / 1e9 <
                            std::min(2.0, args.seconds / 10) ||
                        warmup_ops % cycle != 0)) {
    w->Prepare();
    Status st = w->Issue();
    if (st.ok()) st = w->Settle();
    const size_t bad = w->VerifyRecent();
    warmup_failed += st.ok() && bad == 0 ? 0 : 1;
    ++warmup_ops;
  }

  std::map<std::string, double> extra;
  w->AddMetrics(false, &extra);
  const Counters before = TakeCounters(w->system());

  // Closed loop: one op outstanding; each op timed from its first API
  // call until every affected view is up to date.
  const size_t max_ops = args.tiny ? 60 : SIZE_MAX;
  const double loop_s = args.trace ? args.seconds : args.seconds * 2 / 3;
  std::vector<OpRecord> ops;
  const int64_t loop_start = NowNs();
  Blocks loop_blocks(cycle, w->rotate_cpus());
  while (((NowNs() - loop_start) / 1e9 < loop_s || ops.size() % cycle != 0) &&
         ops.size() < max_ops) {
    const bool traced = args.trace && (ops.size() / kTraceBlock) % 2 == 1;
    const int block = loop_blocks.Next(ops.size());
    OpClass cls = w->Prepare();
    tracer.op = static_cast<int64_t>(ops.size());
    tracer.on = traced;
    const int64_t t0 = NowNs();
    Status st = w->Issue();
    if (st.ok()) st = w->Settle();
    const double ms = (NowNs() - t0) / 1e6;
    tracer.on = false;
    size_t bad = w->VerifyRecent();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: op %zu failed: %s\n", ops.size(),
                   st.ToString().c_str());
    }
    ops.push_back(OpRecord{cls, ms, st.ok() && bad == 0, traced, block});
  }
  const double loop_wall_s = (NowNs() - loop_start) / 1e9;
  const Counters after = TakeCounters(w->system());
  w->AddMetrics(true, &extra);

  // Burst: the same op stream, B ops issued before each convergence.
  size_t burst_ops = 0, burst_failed = 0;
  std::vector<int> burst_block;
  std::vector<double> burst_n, burst_s;  // per batch
  if (!args.trace) {
    const int64_t burst_start = NowNs();
    Blocks blocks(cycle, w->rotate_cpus());
    const size_t max_burst = args.tiny ? 4 : SIZE_MAX;
    for (size_t b = 0; ((NowNs() - burst_start) / 1e9 < args.seconds / 3 ||
                        burst_ops % cycle != 0) &&
                       b < max_burst;
         ++b) {
      burst_block.push_back(blocks.Next(burst_ops));
      Status st;
      int64_t busy = 0;
      for (size_t k = 0; k < w->burst_size(); ++k) {
        w->Prepare();
        const int64_t t0 = NowNs();
        Status s = w->Issue();
        busy += NowNs() - t0;
        if (!s.ok()) st = s;
      }
      const int64_t t0 = NowNs();
      Status settled = w->Settle();
      busy += NowNs() - t0;
      if (st.ok()) st = settled;
      burst_n.push_back(w->burst_size());
      burst_s.push_back(busy / 1e9);
      burst_ops += w->burst_size();
      const size_t bad = w->VerifyRecent();
      burst_failed += st.ok() ? bad : w->burst_size();
    }
  }

  const bool checks_pass = w->VerifyAll(false);
  const bool self_check = !w->VerifyAll(true);
  if (!checks_pass) std::fprintf(stderr, "perfbench: final model check failed\n");
  if (!self_check) {
    std::fprintf(stderr,
                 "perfbench: self-check failed: a wrong expectation passed\n");
  }

  size_t failed = warmup_failed + burst_failed;
  for (const OpRecord& r : ops) failed += r.ok ? 0 : 1;
  const size_t attempted = warmup_ops + ops.size() + burst_ops;
  const double n = std::max<size_t>(ops.size(), 1);

  std::map<std::string, Metric> m;
  auto cls_is = [](OpClass c) {
    return [c](const OpRecord& r) { return r.cls == c; };
  };
  std::vector<double> write = Latencies(ops, cls_is(OpClass::kWrite));
  std::vector<double> rule = Latencies(ops, cls_is(OpClass::kRule));
  std::vector<double> query = Latencies(ops, cls_is(OpClass::kQuery));
  std::vector<double> all =
      Latencies(ops, [](const OpRecord&) { return true; });
  if (!args.trace) {
    // p50/p99 over every op of the class; the mean as a median of means.
    auto dist = [&](const std::string& name, const std::vector<double>& v,
                    const std::function<bool(const OpRecord&)>& pick,
                    bool p50) {
      if (v.empty()) return;
      if (p50) m[name + ".p50"] = {Percentile(v, 0.50), "ms"};
      m[name + ".p99"] = {Percentile(v, 0.99), "ms"};
      std::vector<int> block;
      std::vector<double> ms, one;
      for (const OpRecord& r : ops) {
        if (!pick(r)) continue;
        block.push_back(r.block);
        ms.push_back(r.ok ? r.ms : std::max(r.ms, kFailureMs));
        one.push_back(1);
      }
      m[name + ".mean"] = {MedianOfMeans(block, ms, one), "ms"};
    };
    auto any = [](const OpRecord&) { return true; };
    dist("write_ms", write, cls_is(OpClass::kWrite),
         args.workload != "cluster_tcp");
    dist("rule_ms", rule, cls_is(OpClass::kRule), true);
    dist("query_ms", query, cls_is(OpClass::kQuery), true);
    m.erase("query_ms.mean");
    dist("op_ms", all, any, false);
    m["burst_ops_per_s"] = {
        MedianOfMeans(burst_block, burst_n, burst_s), "ops/s"};
    m["setup_s"] = {Percentile(setup_s, 0.5), "s"};
    m["peak_rss_mb"] = {PeakRssMb() + extra["daemons_peak_rss_mb"], "MB"};
    m["wire_bytes_per_op"] = {(after.net.bytes_sent - before.net.bytes_sent) / n,
                              "B"};
    m["error_rate"] = {static_cast<double>(failed) / std::max<size_t>(attempted, 1),
                       "ratio"};
  } else {
    size_t traced_ops = 0;
    for (const OpRecord& r : ops) traced_ops += r.traced ? 1 : 0;
    const double nt = std::max<size_t>(traced_ops, 1);
    auto total_ms = [&](const char* s) {
      return (tracer.Measured(s).total_ns + tracer.Setup(s).total_ns) / 1e6;
    };
    auto p50_us = [&](const char* s) {
      std::vector<double> v;
      for (int64_t d : tracer.Measured(s).durations_ns) v.push_back(d / 1e3);
      return Percentile(v, 0.5);
    };
    auto per_op = [&](uint64_t a, uint64_t b) { return (b - a) / n; };
    const wdl::EvalCounters& e0 = before.eval;
    const wdl::EvalCounters& e1 = after.eval;
    const double stages = (e1.stages_full - e0.stages_full) +
                          (e1.stages_incremental - e0.stages_incremental);
    const double compiles = after.plans.compiles - before.plans.compiles;
    const double hits = after.plans.hits - before.plans.hits;
    const double queries = extra["queries"];
    const double rows = extra["query_rows"];
    m["parser.parse_ms"] = {total_ms(span::kParse), "ms"};
    m["runtime.load_ms"] = {total_ms(span::kLoad), "ms"};
    m["runtime.insert_us.p50"] = {p50_us(span::kInsert), "us"};
    m["runtime.converge_self_ms_per_op"] = {
        tracer.Measured(span::kConverge).self_ns / 1e6 / nt, "ms"};
    m["runtime.rounds_per_op"] = {(after.rounds - before.rounds) / n, "count"};
    m["runtime.materialized_peers"] = {
        static_cast<double>(after.materialized_peers), "count"};
    m["engine.stages_per_op"] = {stages / n, "count"};
    m["engine.full_stage_ratio"] = {
        stages > 0 ? (e1.stages_full - e0.stages_full) / stages : 0.0, "ratio"};
    m["engine.tuples_examined_per_op"] = {
        per_op(e0.tuples_examined, e1.tuples_examined), "count"};
    m["engine.index_lookups_per_op"] = {
        per_op(e0.index_lookups, e1.index_lookups), "count"};
    m["engine.full_scans_per_op"] = {per_op(e0.full_scans, e1.full_scans),
                                     "count"};
    m["engine.retracted_per_op"] = {
        per_op(e0.tuples_retracted, e1.tuples_retracted), "count"};
    m["engine.rederive_checks_per_op"] = {
        per_op(e0.rederive_checks, e1.rederive_checks), "count"};
    m["engine.plan_compiles_per_op"] = {compiles / n, "count"};
    m["engine.plan_cache.hit_ratio"] = {
        compiles + hits > 0 ? hits / (compiles + hits) : 0.0, "ratio"};
    m["engine.delegations_emitted_per_op"] = {
        per_op(e0.delegations_emitted, e1.delegations_emitted), "count"};
    m["query.tuples_examined_per_row"] = {
        rows > 0 ? extra["query_examined"] / rows : 0.0, "count"};
    m["query.demand_ratio"] = {
        queries > 0 ? extra["query_demand"] / queries : 0.0, "ratio"};
    m["net.submit_us_per_op"] = {
        tracer.Measured(span::kSubmit).total_ns / 1e3 / nt, "us"};
    m["net.deliver_us_per_op"] = {
        tracer.Measured(span::kDeliver).total_ns / 1e3 / nt, "us"};
    m["net.messages_per_op"] = {
        per_op(before.net.messages_submitted, after.net.messages_submitted),
        "count"};
    m["net.resyncs_per_op"] = {
        per_op(before.resyncs_requested, after.resyncs_requested), "count"};
    m["net.tcp.wait_ms_per_op"] = {extra["tcp_wait_ms"] / n, "ms"};
    m["net.tcp.polls_per_op"] = {extra["tcp_polls"] / n, "count"};
    m["acl.approve_us.p50"] = {p50_us(span::kApprove), "us"};
    m["wrappers.sync_us_per_op"] = {
        tracer.Measured(span::kSync).total_ns / 1e3 / nt, "us"};
    m["durability.disk_bytes_per_op"] = {extra["disk_bytes"] / n, "B"};
    std::vector<double> w_on, w_off;
    for (const OpRecord& r : ops) {
      if (r.cls != OpClass::kWrite) continue;
      (r.traced ? w_on : w_off).push_back(r.ok ? r.ms : kFailureMs);
    }
    m["trace.overhead_pct"] = {
        Mean(w_off) > 0 ? (Mean(w_on) / Mean(w_off) - 1.0) * 100.0 : 0.0, "%"};
    const std::string path = args.workdir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".tsv";
    if (!tracer.WriteTsv(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    }
    std::printf("spans: %s (%zu dropped past the cap)\n", path.c_str(),
                tracer.dropped());
  }

  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  std::printf("workload %s  seed %llu  mode %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  std::printf("host %s  nproc %u  build %s  compiler %s %s\n", host,
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
#if defined(__clang__)
              "clang",
#else
              "gcc",
#endif
              __VERSION__);
  std::printf("%s", w->Describe().c_str());
  std::printf("set-up seconds:");
  for (double t : setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf(
      "set-ups: %zu; warm-up: %zu ops; closed loop: %zu ops in %.2f s (%zu write, %zu "
      "rule, %zu query); burst: %zu ops in batches of %zu; failed %zu of "
      "%zu\n",
      setup_s.size(), warmup_ops, ops.size(), loop_wall_s, write.size(), rule.size(), query.size(),
      burst_ops, w->burst_size(), failed, attempted);
  std::printf("model checks %s, self-check %s\n",
              checks_pass ? "pass" : "FAIL", self_check ? "pass" : "FAIL");
  for (const auto& [name, metric] : m) {
    std::printf("  %-36s %14.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += checks_pass && self_check ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metric.value);
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload wepic|social|large_view|cluster_tcp "
                 "--seed N --seconds S --trace 0|1 [--tiny] [--workdir DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
