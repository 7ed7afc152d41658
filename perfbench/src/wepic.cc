// wepic: the paper's application. `sigmod`, `SigmodFB` with its
// Facebook group wrapper, and attendees with email wrappers, built from
// WepicApp's program texts and the public wrapper classes so the
// benchmark can inject its Network and Wrapper decorators. Large
// picture blobs stress the codec; select/deselect and rating-filter
// swaps stress delegation and its approval (acl) and the parser at op
// time. Engine work per op is small.
#include <map>
#include <set>

#include "base/rng.h"
#include "base/string_util.h"
#include "harness.h"
#include "parser/parser.h"
#include "wepic/wepic.h"
#include "wrappers/email_wrapper.h"
#include "wrappers/facebook_wrapper.h"

namespace perfbench {
namespace {

using wdl::Fact;
using wdl::Value;

// Op schedule per cycle of 20: 3 uploads, 4 ratings, 3 comments,
// 3 tags, 2 Facebook authorizations (writes); 2 selects, 2 deselects,
// 1 rating-filter swap (rule changes).
constexpr char kSchedule[] = "URCTSRUACTDRWCTRSUAD";

class Wepic : public Workload {
 public:
  explicit Wepic(const Config& config)
      : seed_(config.seed),
        rng_(config.seed * 0x9E3779B97F4A7C15ull + 7),
        num_attendees_(config.tiny ? 4 : 64),
        preload_pictures_(config.tiny ? 3 : 50),
        max_blob_(config.tiny ? 256 : 16384) {}

  Status Setup() override {
    system_ = std::make_unique<wdl::System>(std::make_unique<TimedNetwork>(
        std::make_unique<wdl::SimulatedNetwork>()));
    facebook_.CreateGroup(wdl::kFacebookGroup);
    sigmod_ = system_->CreatePeer(wdl::kSigmodPeer);
    Status st = LoadProgramText(sigmod_, wdl::WepicApp::SigmodProgramText());
    if (!st.ok()) return st;
    wdl::Peer* fb = system_->CreatePeer(wdl::kSigmodFBPeer);
    fb->gate().TrustPeer(wdl::kSigmodPeer);
    st = system_->AttachWrapper(std::make_unique<TimedWrapper>(
        std::make_unique<wdl::FacebookGroupWrapper>(
            wdl::kSigmodFBPeer, &facebook_, wdl::kFacebookGroup)));
    if (!st.ok()) return st;

    for (int a = 0; a < num_attendees_; ++a) {
      std::string name = wdl::StrFormat("att%02d", a);
      names_.push_back(name);
      wdl::Peer* peer = system_->CreatePeer(name);
      // Everyone trusts sigmod, nobody else: selections need approval.
      peer->gate().TrustPeer(wdl::kSigmodPeer);
      st = LoadProgramText(peer, wdl::WepicApp::AttendeeProgramText(name));
      if (!st.ok()) return st;
      // The attendee program's first rule is the selection rule.
      rule_id_.push_back(peer->engine().rules().front()->id);
      peers_.push_back(peer);
      st = Insert(sigmod_, Fact("attendees", wdl::kSigmodPeer,
                                {Value::String(name)}));
      if (!st.ok()) return st;
      facebook_.AddUser(name);
      st = facebook_.JoinGroup(wdl::kFacebookGroup, name);
      if (!st.ok()) return st;
      st = system_->AttachWrapper(std::make_unique<TimedWrapper>(
          std::make_unique<wdl::EmailWrapper>(name, &email_,
                                              name + "@example.org")));
      if (!st.ok()) return st;
    }
    pictures_.resize(num_attendees_);
    five_.resize(num_attendees_);
    selected_.resize(num_attendees_);
    filtered_.assign(num_attendees_, false);

    // Preload: pictures, ratings, selections and authorizations, so the
    // measured phase grows the state by a small fraction.
    for (int a = 0; a < num_attendees_; ++a) {
      for (int k = 0; k < preload_pictures_; ++k) {
        PrepareUpload(a);
        if (!(st = Issue()).ok()) return st;
      }
    }
    for (int a = 0; a < num_attendees_; ++a) {
      for (int k = 0; k < 10; ++k) {
        PrepareRate(a);
        if (!(st = Issue()).ok()) return st;
      }
      for (int k = 0; k < 2; ++k) {
        PrepareSelect(a);
        if (!(st = Issue()).ok()) return st;
      }
      for (int k = 0; k < 5; ++k) {
        PrepareAuthorize(a);
        if (!(st = Issue()).ok()) return st;
      }
    }
    recent_.clear();
    return Settle();
  }

  OpClass Prepare() override {
    const char kind = kSchedule[step_++ % (sizeof(kSchedule) - 1)];
    const int a = static_cast<int>(rng_.NextBelow(num_attendees_));
    switch (kind) {
      case 'U':
        PrepareUpload(a);
        return OpClass::kWrite;
      case 'R':
        PrepareRate(a);
        return OpClass::kWrite;
      case 'C': {
        Op op{'C', a, RandomPicture(), 0, "comment " + std::to_string(step_)};
        Push(op, Fact("comment", names_[a],
                      {Value::Int(op.id), Value::String(names_[a]),
                       Value::String(op.text)}));
        return OpClass::kWrite;
      }
      case 'T': {
        Op op{'T', a, RandomPicture(), 0,
              names_[rng_.NextBelow(num_attendees_)]};
        Push(op, Fact("tag", names_[a],
                      {Value::Int(op.id), Value::String(op.text)}));
        return OpClass::kWrite;
      }
      case 'A':
        PrepareAuthorize(a);
        return OpClass::kWrite;
      case 'S':
        PrepareSelect(a);
        return OpClass::kRule;
      case 'D': {
        if (selections_.empty()) {
          PrepareSelect(a);
          return OpClass::kRule;
        }
        auto [x, y] = selections_[rng_.NextBelow(selections_.size())];
        selected_[x].erase(y);
        RemovePair(x, y);
        Push(Op{'D', x, 0, y}, SelectFact(x, y));
        return OpClass::kRule;
      }
      default: {  // 'W'
        // Swaps alternate installing and removing the filter, so the
        // number of filtered frames stays put.
        const bool install = swaps_++ % 2 == 0;
        int x = a;
        while (filtered_[x] == install) x = (x + 1) % num_attendees_;
        filtered_[x] = install;
        Push(Op{'W', x, 0, 0, SelectionRuleText(x)}, Fact());
        return OpClass::kRule;
      }
    }
  }

  Status Issue() override {
    switch (op_.kind) {
      case 'W':
        return SwapSelectionRule(op_.a, op_.text);
      case 'D':
        return Remove(peers_[op_.a], fact_);
      default:
        return Insert(peers_[op_.a], fact_);
    }
  }

  /// Converges, then approves the delegations the op left pending at
  /// the selected attendees (the demo's approval click), until none is.
  Status Settle() override {
    for (;;) {
      Status st = Converge(*system_);
      if (!st.ok()) return st;
      size_t approved = 0;
      for (wdl::Peer* peer : peers_) {
        if (peer->gate().pending_count() == 0) continue;
        wdl::Result<size_t> n = ApproveAll(peer);
        if (!n.ok()) return n.status();
        approved += *n;
      }
      if (approved == 0) return Status::OK();
    }
  }

  size_t VerifyRecent() override { return CheckRecent(); }

  bool VerifyAll(bool corrupt) override {
    const wdl::Relation* sig = sigmod_->engine().catalog().Get("pictures");
    size_t total = 0;
    for (int a = 0; a < num_attendees_; ++a) {
      total += pictures_[a].size();
      const wdl::Relation* own = peers_[a]->engine().catalog().Get("pictures");
      if (own->size() != pictures_[a].size() || !FrameMatches(a)) return false;
      for (int64_t id : pictures_[a]) {
        if (!own->Contains(PictureTuple(a, id)) ||
            !sig->Contains(PictureTuple(a, id))) {
          return false;
        }
      }
    }
    if (sig->size() != total) return false;
    std::set<int64_t> wall;
    for (const auto& p : facebook_.GroupPictures(wdl::kFacebookGroup)) {
      wall.insert(p.id);
    }
    std::set<int64_t> expected = authorized_;
    if (corrupt) expected.insert(-1);
    return wall == expected;
  }

  wdl::System& system() override { return *system_; }
  size_t burst_size() const override { return 20; }
  size_t cycle_length() const override { return 20; }

 private:
  struct Op {
    char kind;
    int a;       // acting attendee
    int64_t id;  // picture id
    int b;       // rating, or the selected attendee
    std::string text = {};
  };

  /// Makes `op` the prepared op; `fact` is what Issue inserts or
  /// removes. Building it here keeps blob generation out of the timing.
  void Push(Op op, Fact fact) {
    op_ = op;
    fact_ = std::move(fact);
    recent_.push_back(std::move(op));
  }

  void PrepareUpload(int a) {
    const int64_t id = next_id_++;
    pictures_[a].push_back(id);
    owner_[id] = a;
    Push(Op{'U', a, id, 0}, Fact("pictures", names_[a], PictureTuple(a, id)));
  }

  void PrepareRate(int a) {
    int64_t id = pictures_[a].empty() || rng_.NextBelow(2) == 0
                     ? RandomPicture()
                     : pictures_[a][rng_.NextBelow(pictures_[a].size())];
    const int rating = static_cast<int>(1 + rng_.NextBelow(5));
    if (rating == 5 && owner_[id] == a) five_[a].insert(id);
    Push(Op{'R', a, id, rating},
         Fact("rate", names_[a], {Value::Int(id), Value::Int(rating)}));
  }

  void PrepareSelect(int x) {
    // Someone who has not yet selected everyone else.
    while (static_cast<int>(selected_[x].size()) == num_attendees_ - 1) {
      x = (x + 1) % num_attendees_;
    }
    int y;
    do {
      y = static_cast<int>(rng_.NextBelow(num_attendees_));
    } while (y == x || selected_[x].count(y) > 0);
    selected_[x].insert(y);
    pair_index_[{x, y}] = selections_.size();
    selections_.push_back({x, y});
    Push(Op{'S', x, 0, y}, SelectFact(x, y));
  }

  void PrepareAuthorize(int a) {
    // A picture of the owner's not yet on the wall; preloaded albums
    // are large enough that a few draws find one.
    int64_t id = pictures_[a][rng_.NextBelow(pictures_[a].size())];
    for (int tries = 0; tries < 16 && authorized_.count(id) > 0; ++tries) {
      id = pictures_[a][rng_.NextBelow(pictures_[a].size())];
    }
    authorized_.insert(id);
    Push(Op{'A', a, id, 0},
         Fact("authorized", names_[a],
              {Value::String("Facebook"), Value::Int(id),
               Value::String(names_[a])}));
  }

  void RemovePair(int x, int y) {
    auto it = pair_index_.find({x, y});
    size_t i = it->second;
    pair_index_.erase(it);
    if (i + 1 != selections_.size()) {
      selections_[i] = selections_.back();
      pair_index_[selections_[i]] = i;
    }
    selections_.pop_back();
  }

  int64_t RandomPicture() {
    int owner = static_cast<int>(rng_.NextBelow(num_attendees_));
    return pictures_[owner][rng_.NextBelow(pictures_[owner].size())];
  }

  /// The §4 customization rule for attendee `a`: the rating-5 filter
  /// when the model says it is on, else the default selection rule.
  std::string SelectionRuleText(int a) const {
    const char* me = names_[a].c_str();
    return filtered_[a]
               ? wdl::StrFormat(
                     "attendeePictures@%s($id, $name, $owner, $data) :- "
                     "selectedAttendee@%s($attendee), "
                     "pictures@$attendee($id, $name, $owner, $data), "
                     "rate@$owner($id, 5)",
                     me, me)
               : wdl::StrFormat(
                     "attendeePictures@%s($id, $name, $owner, $data) :- "
                     "selectedAttendee@%s($attendee), "
                     "pictures@$attendee($id, $name, $owner, $data)",
                     me, me);
  }

  /// Replaces the attendee's selection rule with `text`. The text goes
  /// through the parser first, as the demo's rule editor does.
  Status SwapSelectionRule(int a, const std::string& text) {
    {
      Span s(span::kParse);
      wdl::Result<wdl::Rule> parsed = wdl::ParseRule(text);
      if (!parsed.ok()) return parsed.status();
    }
    Span s(span::kRule);
    Status st = peers_[a]->RemoveRule(rule_id_[a]);
    if (!st.ok()) return st;
    wdl::Result<uint64_t> id = peers_[a]->AddRuleText(text);
    if (!id.ok()) return id.status();
    rule_id_[a] = *id;
    return Status::OK();
  }

  std::string Blob(int64_t id) const {
    wdl::Rng r(seed_ * 1000003 + static_cast<uint64_t>(id));
    const size_t min = max_blob_ / 16;  // 1-16 KiB at full size
    const size_t size = min + r.NextBelow(max_blob_ - min + 1);
    std::string bytes(size, '\0');
    for (size_t i = 0; i < size; i += 8) {
      uint64_t x = r.Next();
      for (size_t k = 0; k < 8 && i + k < size; ++k) {
        bytes[i + k] = static_cast<char>(x >> (8 * k));
      }
    }
    return bytes;
  }
  wdl::Tuple PictureTuple(int a, int64_t id) const {
    return {Value::Int(id), Value::String("img" + std::to_string(id) + ".jpg"),
            Value::String(names_[a]), Value::MakeBlob(Blob(id))};
  }
  Fact SelectFact(int x, int y) const {
    return Fact("selectedAttendee", names_[x], {Value::String(names_[y])});
  }

  /// attendeePictures@x holds exactly the pictures of the attendees x
  /// selected (rated 5 by their owner when x runs the filter).
  bool FrameMatches(int x) const {
    std::set<std::pair<int64_t, std::string>> want, got;
    for (int y : selected_[x]) {
      for (int64_t id : pictures_[y]) {
        if (!filtered_[x] || five_[y].count(id) > 0) {
          want.insert({id, names_[y]});
        }
      }
    }
    const wdl::Relation* frame =
        peers_[x]->engine().catalog().Get("attendeePictures");
    if (frame != nullptr) {
      frame->ForEach([&](const wdl::Tuple& t) {
        got.insert({t[0].AsInt(), t[2].AsString()});
      });
    }
    return want == got;
  }

  bool Has(int a, const char* relation, const wdl::Tuple& t) const {
    const wdl::Relation* rel = peers_[a]->engine().catalog().Get(relation);
    return rel != nullptr && rel->Contains(t);
  }

  size_t CheckRecent() {
    size_t bad = 0;
    const wdl::Relation* sig = sigmod_->engine().catalog().Get("pictures");
    for (const Op& op : recent_) {
      bool ok = true;
      const std::string& me = names_[op.a];
      switch (op.kind) {
        case 'U':
          ok = Has(op.a, "pictures", PictureTuple(op.a, op.id)) &&
               sig->Contains(PictureTuple(op.a, op.id));
          for (int x = 0; x < num_attendees_; ++x) {
            if (selected_[x].count(op.a) > 0) ok = ok && FrameMatches(x);
          }
          break;
        case 'R':
          ok = Has(op.a, "rate", {Value::Int(op.id), Value::Int(op.b)});
          for (int x = 0; x < num_attendees_; ++x) {
            if (filtered_[x] && selected_[x].count(op.a) > 0) {
              ok = ok && FrameMatches(x);
            }
          }
          break;
        case 'C':
          ok = Has(op.a, "comment",
                   {Value::Int(op.id), Value::String(me),
                    Value::String(op.text)});
          break;
        case 'T':
          ok = Has(op.a, "tag", {Value::Int(op.id), Value::String(op.text)});
          break;
        case 'A':
          ok = facebook_.GroupHasPicture(wdl::kFacebookGroup, op.id);
          break;
        default:  // 'S', 'D', 'W'
          ok = FrameMatches(op.a);
      }
      bad += ok ? 0 : 1;
    }
    recent_.clear();
    return bad;
  }

  const uint64_t seed_;
  wdl::Rng rng_;
  const int num_attendees_;
  const int preload_pictures_;
  const size_t max_blob_;
  std::unique_ptr<wdl::System> system_;
  wdl::FacebookService facebook_;
  wdl::EmailService email_;
  wdl::Peer* sigmod_ = nullptr;
  std::vector<std::string> names_;
  std::vector<wdl::Peer*> peers_;
  std::vector<uint64_t> rule_id_;  // current selection rule per attendee

  // The model, kept from the op log.
  std::vector<std::vector<int64_t>> pictures_;  // ids by owner
  std::map<int64_t, int> owner_;
  std::vector<std::set<int64_t>> five_;  // own pictures rated 5
  std::vector<std::set<int>> selected_;
  std::vector<std::pair<int, int>> selections_;  // for uniform deselects
  std::map<std::pair<int, int>, size_t> pair_index_;
  std::vector<bool> filtered_;
  std::set<int64_t> authorized_;
  int64_t next_id_ = 1;

  size_t step_ = 0, swaps_ = 0;
  Op op_{'U', 0, 0, 0};
  Fact fact_;
  std::vector<Op> recent_;
};

}  // namespace

std::unique_ptr<Workload> MakeWepic(const Config& config) {
  return std::make_unique<Wepic>(config);
}

}  // namespace perfbench
