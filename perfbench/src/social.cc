// social: many lazy peers on a Zipf follower graph. Following installs
// a residual rule at the followee (delegation), unfollowing retracts
// it, and a post fans out through the installed residuals to every
// follower's feed. Stresses the runtime over many peers, delegation
// install/retract, high fan-out, and the shared plan cache.
#include <unordered_set>

#include "base/rng.h"
#include "harness.h"
#include "workload/social_graph.h"

namespace perfbench {
namespace {

using wdl::Fact;
using wdl::Value;

// Op schedule: half follows, a quarter unfollows, a quarter posts (the
// churn mix of MakeChurnScript). Follow targets, unfollowed followees
// and post authors are Zipf ranks drawn systematically in cycles of 20,
// 10 and 10, so the whole mix repeats every 40 ops.
constexpr char kSchedule[] = "FPFU";
constexpr uint32_t kFollowCycle = 20, kPostCycle = 10, kUnfollowCycle = 10;

class Social : public Workload {
 public:
  explicit Social(const Config& config)
      : seed_(config.seed),
        rng_(config.seed * 0x9E3779B97F4A7C15ull + 5),
        num_peers_(config.tiny ? 200 : 10000),
        follow_targets_(num_peers_, 1.0, kFollowCycle, config.seed + 1),
        unfollow_targets_(num_peers_, 1.0, kUnfollowCycle, config.seed + 2),
        post_authors_(num_peers_, 1.0, kPostCycle, config.seed + 3) {}

  Status Setup() override {
    system_ = std::make_unique<wdl::System>(std::make_unique<TimedNetwork>(
        std::make_unique<wdl::SimulatedNetwork>()));
    wdl::SocialGraphOptions options;
    options.num_peers = num_peers_;
    options.mean_followers = 8;
    options.seed = seed_;
    wdl::SocialGraph graph = wdl::GenerateSocialGraph(options);
    names_.resize(num_peers_);
    peers_.resize(num_peers_);
    follows_.resize(num_peers_);
    followers_.resize(num_peers_);
    posts_.resize(num_peers_);
    for (uint32_t id = 0; id < num_peers_; ++id) {
      names_[id] = wdl::SocialPeerName(id);
      peers_[id] = system_->CreatePeer(names_[id], wdl::SocialPeerOptions());
    }
    for (uint32_t v = 0; v < num_peers_; ++v) {
      for (uint32_t f : graph.followers[v]) {
        Status st = IssueFollow(f, v);
        if (!st.ok()) return st;
        AddEdge(f, v);
      }
    }
    // A thousand posts by uniformly drawn authors, so follows pull
    // content and unfollows retract it.
    for (int i = 0; i < (num_peers_ < 1000 ? 100 : 1000); ++i) {
      uint32_t author = static_cast<uint32_t>(rng_.NextBelow(num_peers_));
      Status st = IssuePost(author, next_post_id_);
      if (!st.ok()) return st;
      posts_[author].push_back(next_post_id_++);
    }
    return Converge(*system_);
  }

  OpClass Prepare() override {
    kind_ = kSchedule[step_++ % (sizeof(kSchedule) - 1)];
    if (kind_ == 'P') {
      actor_ = post_authors_.Next();
      post_id_ = next_post_id_++;
      posts_[actor_].push_back(post_id_);
      recent_.push_back({kind_, actor_, post_id_});
      return OpClass::kWrite;
    }
    if (kind_ == 'U' && !PickUnfollow()) kind_ = 'F';
    if (kind_ == 'F') PickFollow();
    recent_.push_back({kind_, actor_, target_});
    return OpClass::kRule;
  }

  Status Issue() override {
    switch (kind_) {
      case 'F':
        return IssueFollow(actor_, target_);
      case 'U':
        return Remove(Programmed(actor_),
                      Fact("follows", names_[actor_],
                           {Value::String(names_[target_])}));
      default:
        return IssuePost(actor_, post_id_);
    }
  }

  Status Settle() override { return Converge(*system_); }

  size_t VerifyRecent() override {
    size_t bad = 0;
    for (const Recent& r : recent_) {
      bool ok = true;
      if (r.kind == 'P') {
        for (uint32_t f : followers_[r.actor]) {
          ok = ok && FeedHas(f, r.arg, r.actor);
        }
      } else {
        const bool want = r.kind == 'F';
        const uint32_t v = static_cast<uint32_t>(r.arg);
        // A later op of the same batch may have re-followed or
        // unfollowed; the model's current edge decides.
        if (want == (follows_[r.actor].count(v) > 0)) {
          for (int64_t p : posts_[v]) ok = ok && FeedHas(r.actor, p, v) == want;
        }
      }
      bad += ok ? 0 : 1;
    }
    recent_.clear();
    return bad;
  }

  bool VerifyAll(bool corrupt) override {
    bool corrupted = false;
    for (uint32_t f = 0; f < num_peers_; ++f) {
      size_t expected = 0;
      for (uint32_t v : follows_[f]) {
        expected += posts_[v].size();
        for (int64_t p : posts_[v]) {
          if (!FeedHas(f, p, v)) return false;
        }
      }
      if (corrupt && !corrupted && expected > 0) {
        ++expected;  // a post the model never saw
        corrupted = true;
      }
      const wdl::Relation* feed =
          peers_[f]->has_engine() ? peers_[f]->engine().catalog().Get("feed")
                                  : nullptr;
      if ((feed == nullptr ? 0 : feed->size()) != expected) return false;
    }
    return true;
  }

  wdl::System& system() override { return *system_; }
  size_t burst_size() const override { return 40; }
  size_t cycle_length() const override { return 40; }

 private:
  struct Recent {
    char kind;
    uint32_t actor;
    int64_t arg;  // followee, or post id
  };

  /// The peer, with the social program loaded on first touch.
  wdl::Peer* Programmed(uint32_t id) {
    if (programmed_.insert(id).second) {
      Status st =
          LoadProgramText(peers_[id], wdl::SocialProgramText(names_[id]));
      if (!st.ok()) load_error_ = st;
    }
    return peers_[id];
  }

  Status IssueFollow(uint32_t f, uint32_t v) {
    Programmed(v);
    wdl::Peer* peer = Programmed(f);
    if (!load_error_.ok()) return load_error_;
    return Insert(peer, Fact("follows", names_[f], {Value::String(names_[v])}));
  }

  Status IssuePost(uint32_t author, int64_t id) {
    wdl::Peer* peer = Programmed(author);
    if (!load_error_.ok()) return load_error_;
    return Insert(peer, Fact("post", names_[author], {Value::Int(id)}));
  }

  bool FeedHas(uint32_t f, int64_t post, uint32_t author) const {
    if (!peers_[f]->has_engine()) return false;
    const wdl::Relation* feed = peers_[f]->engine().catalog().Get("feed");
    return feed != nullptr &&
           feed->Contains({Value::Int(post), Value::String(names_[author])});
  }

  /// A follower of a Zipf-drawn followee; false when the draws find no
  /// followed peer (only in tiny graphs).
  bool PickUnfollow() {
    for (int tries = 0; tries < 64; ++tries) {
      target_ = unfollow_targets_.Next();
      const auto& fs = followers_[target_];
      if (fs.empty()) continue;
      actor_ = *std::next(fs.begin(), rng_.NextBelow(fs.size()));
      RemoveEdge(actor_, target_);
      return true;
    }
    return false;
  }

  /// A Zipf-drawn followee and a uniformly drawn peer not yet following
  /// it (hubs are followed by most peers, so the follower is re-drawn).
  void PickFollow() {
    for (;;) {
      target_ = follow_targets_.Next();
      for (int tries = 0; tries < 256; ++tries) {
        actor_ = static_cast<uint32_t>(rng_.NextBelow(num_peers_));
        if (actor_ != target_ && follows_[actor_].count(target_) == 0) {
          AddEdge(actor_, target_);
          return;
        }
      }
    }
  }

  void AddEdge(uint32_t f, uint32_t v) {
    follows_[f].insert(v);
    followers_[v].insert(f);
  }
  void RemoveEdge(uint32_t f, uint32_t v) {
    follows_[f].erase(v);
    followers_[v].erase(f);
  }

  const uint64_t seed_;
  wdl::Rng rng_;
  const uint32_t num_peers_;
  SystematicZipf follow_targets_;
  SystematicZipf unfollow_targets_;
  SystematicZipf post_authors_;
  std::unique_ptr<wdl::System> system_;
  std::vector<std::string> names_;
  std::vector<wdl::Peer*> peers_;
  std::unordered_set<uint32_t> programmed_;
  Status load_error_;

  // The model: who follows whom, and every post by author.
  std::vector<std::unordered_set<uint32_t>> follows_;
  std::vector<std::unordered_set<uint32_t>> followers_;
  std::vector<std::vector<int64_t>> posts_;
  int64_t next_post_id_ = 1;

  size_t step_ = 0;
  char kind_ = 'F';
  uint32_t actor_ = 0, target_ = 0;
  int64_t post_id_ = 0;
  std::vector<Recent> recent_;
};

}  // namespace

std::unique_ptr<Workload> MakeSocial(const Config& config) {
  return std::make_unique<Social>(config);
}

}  // namespace perfbench
