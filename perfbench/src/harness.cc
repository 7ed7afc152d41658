#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "parser/parser.h"

namespace perfbench {

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Begin(const char* name) {
  Open o{name, NowNs(), 0, stack_.empty() ? -1 : stack_.back().record};
  if (records_.size() < kMaxRecords) {
    o.record = static_cast<int32_t>(records_.size());
    records_.push_back(Record{name, o.start_ns, 0, o.parent, op});
  } else {
    ++dropped_;
  }
  stack_.push_back(o);
}

void Tracer::End() {
  const int64_t end = NowNs();
  Open o = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - o.start_ns;
  if (o.record >= 0) records_[o.record].end_ns = end;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  Agg& agg = (op >= 0 ? measured_ : setup_)[o.name];
  ++agg.count;
  agg.total_ns += dur;
  agg.self_ns += dur - o.child_ns;
  if (o.name == span::kInsert || o.name == span::kApprove) {
    agg.durations_ns.push_back(dur);
  }
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name\tstart_ns\tend_ns\tparent\top\n";
  for (const Record& r : records_) {
    out << r.name << '\t' << r.start_ns << '\t' << r.end_ns << '\t'
        << r.parent << '\t' << r.op << '\n';
  }
  return static_cast<bool>(out);
}

Status LoadProgramText(wdl::Peer* peer, const std::string& text) {
  wdl::Result<wdl::Program> program = [&] {
    Span s(span::kParse);
    return wdl::ParseProgram(text);
  }();
  if (!program.ok()) return program.status();
  Span s(span::kLoad);
  return peer->LoadProgram(*program);
}

Status Insert(wdl::Peer* peer, const wdl::Fact& fact) {
  Span s(span::kInsert);
  return peer->Insert(fact).status();
}

Status Remove(wdl::Peer* peer, const wdl::Fact& fact) {
  Span s(span::kInsert);
  return peer->Remove(fact).status();
}

Status Converge(wdl::System& system) {
  Span s(span::kConverge);
  return system.RunUntilQuiescent(1'000'000).status();
}

wdl::Result<size_t> ApproveAll(wdl::Peer* peer) {
  std::vector<uint64_t> keys;
  for (const wdl::Delegation* d : peer->gate().Pending()) {
    keys.push_back(d->Key());
  }
  for (uint64_t key : keys) {
    Span s(span::kApprove);
    Status st = peer->ApproveDelegation(key);
    if (!st.ok()) return st;
  }
  return keys.size();
}

Counters TakeCounters(const wdl::System& system) {
  Counters c;
  for (const std::string& name : system.PeerNames()) {
    const wdl::Peer* peer = system.GetPeer(name);
    if (!peer->has_engine()) continue;
    ++c.materialized_peers;
    c.eval.MergeFrom(peer->engine().eval_counters());
    c.resyncs_requested +=
        peer->engine().propagation_counters().resyncs_requested;
  }
  c.net = system.transport().StatsSnapshot();
  c.plans = wdl::SharedPlanCache::Instance().stats();
  c.rounds = system.rounds_run();
  return c;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / values.size();
}

double PeakRssMb(int pid) {
  std::string path = pid == 0 ? std::string("/proc/self/status")
                              : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

SystematicZipf::SystematicZipf(uint32_t n, double s, uint32_t cycle,
                               uint64_t seed)
    : rng_(seed), cycle_(cycle) {
  cdf_.reserve(n);
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(r + 1.0, s);
    cdf_.push_back(total);
  }
}

uint32_t SystematicZipf::Next() {
  if (pending_.empty()) {
    const double j = rng_.NextDouble();
    for (uint32_t k = 0; k < cycle_; ++k) {
      const double u = (k + j) / cycle_ * cdf_.back();
      auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
      if (it == cdf_.end()) --it;
      pending_.push_back(static_cast<uint32_t>(it - cdf_.begin()));
    }
    for (size_t i = pending_.size(); i > 1; --i) {
      std::swap(pending_[i - 1], pending_[rng_.NextBelow(i)]);
    }
  }
  const uint32_t rank = pending_.back();
  pending_.pop_back();
  return rank;
}

}  // namespace perfbench
