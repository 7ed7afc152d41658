// Shared machinery of the end-to-end benchmark: outside-in span
// tracing, timing decorators for the Network and Wrapper interfaces,
// public-counter snapshots, latency statistics, and the Workload
// interface the closed-loop and burst phases run.
//
// Everything here times the runtime from outside, at the calls the
// benchmark makes into it; nothing inside src/ is instrumented.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "engine/eval.h"
#include "engine/plan_cache.h"
#include "net/network.h"
#include "runtime/peer.h"
#include "runtime/system.h"
#include "runtime/wrapper.h"

namespace perfbench {

using wdl::Status;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Span names. Inline constexpr arrays have one address program-wide,
// so the tracer keys its aggregates by pointer.
namespace span {
inline constexpr char kParse[] = "parser.parse";
inline constexpr char kLoad[] = "runtime.load";
inline constexpr char kInsert[] = "runtime.insert";  // Insert and Remove
inline constexpr char kRule[] = "runtime.rule";      // AddRuleText/RemoveRule
inline constexpr char kQuery[] = "runtime.query";
inline constexpr char kConverge[] = "runtime.converge";
inline constexpr char kApprove[] = "acl.approve";
inline constexpr char kSubmit[] = "net.submit";
inline constexpr char kDeliver[] = "net.deliver";
inline constexpr char kSync[] = "wrappers.sync";
}  // namespace span

/// In-memory span recorder. Spans nest strictly (they are RAII scopes
/// on one thread), so a span's self time is its duration minus the
/// durations of its direct children. Spans carry the id of the op they
/// belong to (-1 during set-up); aggregates are kept separately for
/// set-up and measured spans. Records are written out once, at the end.
class Tracer {
 public:
  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    std::vector<int64_t> durations_ns;  // kept for kInsert and kApprove
  };

  bool on = false;
  int64_t op = -1;

  void Begin(const char* name);
  void End();

  /// Aggregates of spans with op id >= 0 (measured) or < 0 (set-up).
  const Agg& Measured(const char* name) const { return Get(measured_, name); }
  const Agg& Setup(const char* name) const { return Get(setup_, name); }

  /// Writes every kept record as TSV: name, start, end, parent, op.
  bool WriteTsv(const std::string& path) const;
  size_t dropped() const { return dropped_; }

 private:
  struct Record {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index into records_, -1 for a root span
    int64_t op;
  };
  struct Open {
    const char* name;
    int64_t start_ns;
    int64_t child_ns;
    int32_t parent;
    int32_t record = -1;
  };
  static constexpr size_t kMaxRecords = 2'000'000;

  static const Agg& Get(const std::unordered_map<const char*, Agg>& m,
                        const char* name) {
    static const Agg kEmpty;
    auto it = m.find(name);
    return it == m.end() ? kEmpty : it->second;
  }

  std::vector<Record> records_;
  std::vector<Open> stack_;
  std::unordered_map<const char*, Agg> measured_;
  std::unordered_map<const char*, Agg> setup_;
  size_t dropped_ = 0;
};

Tracer& GlobalTracer();

/// RAII span; free (one branch) while tracing is off.
class Span {
 public:
  explicit Span(const char* name) : active_(GlobalTracer().on) {
    if (active_) GlobalTracer().Begin(name);
  }
  ~Span() {
    if (active_) GlobalTracer().End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

/// Network decorator: spans around Submit (encode + link model) and
/// DeliverDue (decode), injected through System(unique_ptr<Network>).
class TimedNetwork : public wdl::Network {
 public:
  explicit TimedNetwork(std::unique_ptr<wdl::Network> inner)
      : inner_(std::move(inner)) {}
  Status Submit(wdl::Envelope envelope, double now) override {
    Span s(span::kSubmit);
    return inner_->Submit(std::move(envelope), now);
  }
  std::vector<wdl::Envelope> DeliverDue(double now) override {
    Span s(span::kDeliver);
    return inner_->DeliverDue(now);
  }
  bool HasInFlight() const override { return inner_->HasInFlight(); }
  wdl::NetworkStats StatsSnapshot() const override {
    return inner_->StatsSnapshot();
  }
  std::vector<std::string> TakePeerResets() override {
    return inner_->TakePeerResets();
  }

 private:
  std::unique_ptr<wdl::Network> inner_;
};

/// Wrapper decorator: a span around every Sync.
class TimedWrapper : public wdl::Wrapper {
 public:
  explicit TimedWrapper(std::unique_ptr<wdl::Wrapper> inner)
      : inner_(std::move(inner)) {}
  const std::string& peer_name() const override { return inner_->peer_name(); }
  Status Setup(wdl::Peer* peer) override { return inner_->Setup(peer); }
  Status Sync(wdl::Peer* peer) override {
    Span s(span::kSync);
    return inner_->Sync(peer);
  }

 private:
  std::unique_ptr<wdl::Wrapper> inner_;
};

// --- spanned calls into the runtime -----------------------------------

/// ParseProgram + Peer::LoadProgram, each in its own span.
Status LoadProgramText(wdl::Peer* peer, const std::string& text);
Status Insert(wdl::Peer* peer, const wdl::Fact& fact);
Status Remove(wdl::Peer* peer, const wdl::Fact& fact);
/// RunUntilQuiescent in a kConverge span.
Status Converge(wdl::System& system);
/// Approves every pending delegation at `peer`; returns how many.
wdl::Result<size_t> ApproveAll(wdl::Peer* peer);

// --- public counters ---------------------------------------------------

/// Sums of the runtime's public counters at one instant. Diffs of two
/// snapshots taken around a phase are that phase's counts.
struct Counters {
  wdl::EvalCounters eval;
  uint64_t resyncs_requested = 0;
  wdl::NetworkStats net;
  wdl::SharedPlanCache::Stats plans;
  int rounds = 0;
  size_t materialized_peers = 0;
};
Counters TakeCounters(const wdl::System& system);

// --- statistics ----------------------------------------------------------

/// Nearest-rank percentile, p in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);
double PeakRssMb(int pid = 0);  // VmHWM of `pid` (0: this process)

// --- workloads -------------------------------------------------------------

enum class OpClass { kWrite, kRule, kQuery };

struct Config {
  uint64_t seed = 1;
  bool tiny = false;  // small sizes: checks plumbing, not performance
  std::string peerd;  // wdl_peerd binary (cluster_tcp)
  std::string workdir;
};

/// One seeded workload. The phases call, per op: Prepare (untimed:
/// draws the op and applies it to the model), Issue (timed: the API
/// calls), Settle (timed: until every affected view is up to date),
/// VerifyRecent (untimed: the touched state against the model). A
/// burst issues several ops before one Settle.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the system from nothing to first quiescence, warm-up
  /// included. Called on a fresh object.
  virtual Status Setup() = 0;
  virtual OpClass Prepare() = 0;
  virtual Status Issue() = 0;
  virtual Status Settle() = 0;
  /// Checks every op issued since the previous call; returns how many
  /// of them do not match the model.
  virtual size_t VerifyRecent() = 0;
  /// Full check of the workload's outputs against the model. With
  /// `corrupt` set the expectation is deliberately wrong, and a sound
  /// check must report a mismatch.
  virtual bool VerifyAll(bool corrupt) = 0;
  virtual wdl::System& system() = 0;
  /// Figures only the workload knows (daemon RSS, disk growth, query
  /// counts), by name. Called at the start of the closed loop (`at_end`
  /// false: take a baseline) and at its end (report the loop's share).
  virtual void AddMetrics(bool at_end, std::map<std::string, double>* out) {
    (void)at_end;
    (void)out;
  }
  /// Report lines: fsync policy and the like.
  virtual std::string Describe() const { return ""; }
  /// Ops this workload counts as one burst before converging.
  virtual size_t burst_size() const { return 16; }
  /// Length of the op schedule's cycle: the op mix (and, where ranks
  /// are sampled systematically, the rank mix) repeats exactly every
  /// this many ops, so the phases stop only at multiples of it.
  virtual size_t cycle_length() const = 0;
  /// False when the workload runs processes of its own (cluster_tcp's
  /// relays): moving the client across CPUs would then time the
  /// scheduler sharing a core with them.
  virtual bool rotate_cpus() const { return true; }
};

std::unique_ptr<Workload> MakeWepic(const Config& config);
std::unique_ptr<Workload> MakeSocial(const Config& config);
std::unique_ptr<Workload> MakeLargeView(const Config& config);
std::unique_ptr<Workload> MakeClusterTcp(const Config& config);

/// Zipf(s) ranks by systematic sampling: each cycle of `cycle` draws
/// takes the quantiles (k + j) / cycle, k = 0..cycle-1, for one random
/// j, in shuffled order. Every rank with probability p is drawn
/// floor(p * cycle) or ceil(p * cycle) times per cycle. Hub ops dominate
/// the cost of the social workload, so iid draws would make a run's
/// figures depend on how many hub draws it happened to get; this keeps
/// the distribution and removes that variance.
class SystematicZipf {
 public:
  SystematicZipf(uint32_t n, double s, uint32_t cycle, uint64_t seed);
  uint32_t Next();

 private:
  std::vector<double> cdf_;
  wdl::Rng rng_;
  uint32_t cycle_;
  std::vector<uint32_t> pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
