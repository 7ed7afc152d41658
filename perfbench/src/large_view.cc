// large_view: the engine and storage under reads beside writes, with
// almost no network. Peer `graph` holds disjoint 8-edge chains and a
// recursive `reach` view over them (short chains bound the derivation
// depth, so DRed cascades and demand fragments stay O(change)); peer
// `feed` filters items through `not muted@feed($a)`. Ops: bound point
// queries on chain nodes (demand path), edge remove/re-insert (DRed),
// and mute toggles (negation).
#include <map>
#include <set>

#include "base/rng.h"
#include "harness.h"
#include "runtime/query.h"

namespace perfbench {
namespace {

using wdl::Fact;
using wdl::Value;

constexpr int kChainEdges = 8;
constexpr int kChainNodes = kChainEdges + 1;
// Op schedule per cycle of 25: 20 queries, 4 edge toggles, 1 mute.
constexpr char kSchedule[] = "QQEQQQQEQQQQMQQEQQQQQEQQQ";

class LargeView : public Workload {
 public:
  explicit LargeView(const Config& config)
      : rng_(config.seed * 0x9E3779B97F4A7C15ull + 3),
        chains_(config.tiny ? 30 : 3000),
        items_(config.tiny ? 200 : 2000),
        authors_(config.tiny ? 10 : 200) {}

  Status Setup() override {
    system_ = std::make_unique<wdl::System>(std::make_unique<TimedNetwork>(
        std::make_unique<wdl::SimulatedNetwork>()));
    graph_ = system_->CreatePeer("graph");
    feed_ = system_->CreatePeer("feed");
    Status st = LoadProgramText(graph_, R"(
      collection ext edge@graph(src: int, dst: int);
      collection int reach@graph(src: int, dst: int);
      rule reach@graph($x, $y) :- edge@graph($x, $y);
      rule reach@graph($x, $z) :- edge@graph($x, $y), reach@graph($y, $z);
    )");
    if (!st.ok()) return st;
    st = LoadProgramText(feed_, R"(
      collection ext item@feed(id: int, author: int);
      collection ext muted@feed(author: int);
      collection int shown@feed(id: int, author: int);
      rule shown@feed($id, $a) :- item@feed($id, $a), not muted@feed($a);
    )");
    if (!st.ok()) return st;
    // A tenth of the edges start absent. Edge ops alternate removing a
    // present edge and re-inserting an absent one, and mute ops muting
    // and unmuting, so the state the ops run on stays the same size
    // however many ops a run gets through.
    present_.resize(static_cast<size_t>(chains_) * kChainEdges);
    for (size_t e = 0; e < present_.size(); ++e) {
      present_[e] = rng_.NextBelow(10) != 0;
      if (!present_[e]) continue;
      st = Insert(graph_, EdgeFact(static_cast<int>(e)));
      if (!st.ok()) return st;
    }
    item_author_.resize(items_);
    for (int i = 0; i < items_; ++i) {
      item_author_[i] = static_cast<int>(rng_.NextBelow(authors_));
      st = Insert(feed_, Fact("item", "feed",
                              {Value::Int(i), Value::Int(item_author_[i])}));
      if (!st.ok()) return st;
    }
    muted_.assign(authors_, false);
    for (int a = 0; a < authors_; a += 10) {
      muted_[a] = true;
      st = Insert(feed_, MutedFact(a));
      if (!st.ok()) return st;
    }
    st = Converge(*system_);
    if (!st.ok()) return st;
    // Warm-up: the first point query builds the lazy indexes it probes.
    wdl::Result<wdl::QueryResult> r =
        wdl::RunQuery(system_.get(), "graph", "reach@graph(0, $y)");
    return r.status();
  }

  OpClass Prepare() override {
    kind_ = kSchedule[step_++ % (sizeof(kSchedule) - 1)];
    if (kind_ == 'Q') {
      node_ = static_cast<int>(
          rng_.NextBelow(static_cast<uint64_t>(chains_) * kChainNodes));
      expected_ = Reachable(node_);
      return OpClass::kQuery;
    }
    if (kind_ == 'E') {
      const bool remove = edge_ops_++ % 2 == 0;
      do {
        edge_ = static_cast<int>(rng_.NextBelow(present_.size()));
      } while (present_[edge_] != remove);
      present_[edge_] = !remove;
      touched_chains_.push_back(edge_ / kChainEdges);
    } else {
      const bool mute = mute_ops_++ % 2 == 0;
      do {
        author_ = static_cast<int>(rng_.NextBelow(authors_));
      } while (muted_[author_] == mute);
      muted_[author_] = mute;
      touched_authors_.push_back(author_);
    }
    return OpClass::kWrite;
  }

  Status Issue() override {
    if (kind_ == 'Q') {
      wdl::Result<wdl::QueryResult> r = [&] {
        Span s(span::kQuery);
        return wdl::RunQuery(system_.get(), "graph",
                             "reach@graph(" + std::to_string(node_) + ", $y)");
      }();
      if (!r.ok()) return r.status();
      ++queries_;
      query_rows_ += r->rows.size();
      query_examined_ += r->tuples_examined;
      query_demand_ += r->demand_path ? 1 : 0;
      std::set<int64_t> got;
      for (const wdl::Tuple& t : r->rows) got.insert(t[0].AsInt());
      if (got != expected_) ++query_mismatches_;
      return Status::OK();
    }
    if (kind_ == 'E') {
      return present_[edge_] ? Insert(graph_, EdgeFact(edge_))
                             : Remove(graph_, EdgeFact(edge_));
    }
    return muted_[author_] ? Insert(feed_, MutedFact(author_))
                           : Remove(feed_, MutedFact(author_));
  }

  Status Settle() override { return Converge(*system_); }

  size_t VerifyRecent() override {
    size_t bad = query_mismatches_;
    query_mismatches_ = 0;
    const wdl::Relation* reach = graph_->engine().catalog().Get("reach");
    for (int c : touched_chains_) bad += ChainMatches(*reach, c, false) ? 0 : 1;
    const wdl::Relation* shown = feed_->engine().catalog().Get("shown");
    for (int a : touched_authors_) {
      for (int i = 0; i < items_; ++i) {
        if (item_author_[i] == a &&
            shown->Contains(ItemTuple(i)) == muted_[a]) {
          ++bad;
          break;
        }
      }
    }
    touched_chains_.clear();
    touched_authors_.clear();
    return bad;
  }

  bool VerifyAll(bool corrupt) override {
    const wdl::Relation* reach = graph_->engine().catalog().Get("reach");
    size_t expected_reach = 0;
    for (int c = 0; c < chains_; ++c) {
      if (!ChainMatches(*reach, c, corrupt && c == chains_ / 2)) return false;
      for (int j = 0; j < kChainNodes; ++j) {
        expected_reach += Reachable(c * kChainNodes + j).size();
      }
    }
    if (reach->size() != expected_reach) return false;
    const wdl::Relation* shown = feed_->engine().catalog().Get("shown");
    size_t expected_shown = 0;
    for (int i = 0; i < items_; ++i) {
      bool want = !muted_[item_author_[i]];
      expected_shown += want ? 1 : 0;
      if (shown->Contains(ItemTuple(i)) != want) return false;
    }
    return shown->size() == expected_shown;
  }

  wdl::System& system() override { return *system_; }

  void AddMetrics(bool at_end, std::map<std::string, double>* out) override {
    const double now[] = {double(queries_), double(query_rows_),
                          double(query_examined_), double(query_demand_)};
    const char* names[] = {"queries", "query_rows", "query_examined",
                           "query_demand"};
    for (int i = 0; i < 4; ++i) {
      if (at_end) (*out)[names[i]] = now[i] - start_[i];
      start_[i] = now[i];
    }
  }
  size_t cycle_length() const override { return 25; }
  size_t burst_size() const override { return 25; }

 private:
  static Fact EdgeFact(int edge) {
    int chain = edge / kChainEdges, j = edge % kChainEdges;
    int64_t src = static_cast<int64_t>(chain) * kChainNodes + j;
    return Fact("edge", "graph", {Value::Int(src), Value::Int(src + 1)});
  }
  static Fact MutedFact(int author) {
    return Fact("muted", "feed", {Value::Int(author)});
  }
  wdl::Tuple ItemTuple(int i) const {
    return {Value::Int(i), Value::Int(item_author_[i])};
  }

  /// Nodes reachable from `node` over present edges (the model's BFS;
  /// on a chain that is the run of present edges after it).
  std::set<int64_t> Reachable(int node) const {
    std::set<int64_t> out;
    int chain = node / kChainNodes;
    for (int j = node % kChainNodes; j < kChainEdges; ++j) {
      if (!present_[chain * kChainEdges + j]) break;
      out.insert(static_cast<int64_t>(chain) * kChainNodes + j + 1);
    }
    return out;
  }

  /// Every (src, dst) pair of chain `c` is in `reach` iff the model
  /// says dst is reachable from src. `flip` inverts one expectation.
  bool ChainMatches(const wdl::Relation& reach, int c, bool flip) const {
    for (int i = 0; i < kChainNodes; ++i) {
      int64_t src = static_cast<int64_t>(c) * kChainNodes + i;
      std::set<int64_t> want = Reachable(static_cast<int>(src));
      for (int j = i + 1; j < kChainNodes; ++j) {
        bool expect = want.count(src + j - i) > 0;
        if (flip && i == 0 && j == kChainEdges) expect = !expect;
        if (reach.Contains({Value::Int(src), Value::Int(src + j - i)}) !=
            expect) {
          return false;
        }
      }
    }
    return true;
  }

  wdl::Rng rng_;
  const int chains_, items_, authors_;
  std::unique_ptr<wdl::System> system_;
  wdl::Peer* graph_ = nullptr;
  wdl::Peer* feed_ = nullptr;
  std::vector<bool> present_;  // per edge, chain-major
  std::vector<int> item_author_;
  std::vector<bool> muted_;

  size_t step_ = 0, edge_ops_ = 0, mute_ops_ = 0;
  char kind_ = 'Q';
  int node_ = 0, edge_ = 0, author_ = 0;
  std::set<int64_t> expected_;
  size_t query_mismatches_ = 0;
  uint64_t queries_ = 0, query_rows_ = 0, query_examined_ = 0,
           query_demand_ = 0;
  double start_[4] = {0, 0, 0, 0};
  std::vector<int> touched_chains_;
  std::vector<int> touched_authors_;
};

}  // namespace

std::unique_ptr<Workload> MakeLargeView(const Config& config) {
  return std::make_unique<LargeView>(config);
}

}  // namespace perfbench
