// cluster_tcp: the deployment path. This process hosts `client` on a
// TcpNetwork and spawns two durable wdl_peerd relays. Each write goes
// client -> relay1 -> relay2 -> client and counts as visible when the
// tuple is (or, for a delete, is no longer) in the client's album. The
// client polls its System without sleeping, so the latency floor
// measured is the daemons' own idle poll.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <set>

#include "base/rng.h"
#include "harness.h"
#include "net/tcp_network.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using wdl::Fact;
using wdl::Value;

constexpr double kVisibleTimeoutMs = 2000;
constexpr int kRelays = 2;
// Relays snapshot only past this many WAL records, so a run's disk
// growth is WAL appends and no run pays for a log rotation another
// does not.
constexpr char kSnapshotEvery[] = "1000000";

// Relays alive in this process, so a fatal signal can still reap them.
std::atomic<pid_t> g_daemons[kRelays];

void KillDaemonsOnSignal(int sig) {
  for (auto& pid : g_daemons) {
    pid_t p = pid.load();
    if (p > 0) {
      kill(p, SIGKILL);
      waitpid(p, nullptr, 0);
    }
  }
  _exit(128 + sig);
}

constexpr char kClientProgram[] = R"(
  collection ext upload@client(id: int, data: string);
  collection int album@client(id: int, data: string);
  rule hop1@relay1($id, $d) :- upload@client($id, $d);
)";
constexpr char kRelay1Program[] = R"(
  collection int hop1@relay1(id: int, data: string);
  rule hop2@relay2($id, $d) :- hop1@relay1($id, $d);
)";
constexpr char kRelay2Program[] = R"(
  collection int hop2@relay2(id: int, data: string);
  rule album@client($id, $d) :- hop2@relay2($id, $d);
)";

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path + ".tmp");
  out << text;
  out.close();
  if (!out) return false;
  std::error_code ec;
  fs::rename(path + ".tmp", path, ec);
  return !ec;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

class ClusterTcp : public Workload {
 public:
  explicit ClusterTcp(const Config& config)
      : config_(config),
        rng_(config.seed * 0x9E3779B97F4A7C15ull + 11),
        preload_(config.tiny ? 10 : 200) {
    static int instance = 0;
    dir_ = fs::absolute(config.workdir + "/cluster-" +
                        std::to_string(getpid()) + "-" +
                        std::to_string(instance++))
               .string();
  }

  ~ClusterTcp() override {
    // Reap the relays on every exit path, then drop their data dirs.
    system_.reset();
    for (int i = 0; i < kRelays; ++i) {
      if (pids_[i] <= 0) continue;
      kill(pids_[i], SIGTERM);
      int waited_ms = 0;
      while (waitpid(pids_[i], nullptr, WNOHANG) == 0) {
        if (waited_ms++ == 2000) {
          kill(pids_[i], SIGKILL);
          waitpid(pids_[i], nullptr, 0);
          break;
        }
        usleep(1000);
      }
      g_daemons[i].store(0);
    }
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  Status Setup() override {
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec) return Status::Internal("cannot create " + dir_);
    if (!WriteFile(dir_ + "/relay1.wdl", kRelay1Program) ||
        !WriteFile(dir_ + "/relay2.wdl", kRelay2Program)) {
      return Status::Internal("cannot write relay programs in " + dir_);
    }
    auto tcp = std::make_unique<wdl::TcpNetwork>();
    Status st = tcp->Start();
    if (!st.ok()) return st;
    tcp->AddLocalPeer("client");
    tcp->SetPeerAddressFile("relay1", dir_ + "/relay1.addr");
    tcp->SetPeerAddressFile("relay2", dir_ + "/relay2.addr");
    if (!WriteFile(dir_ + "/client.addr",
                   "127.0.0.1:" + std::to_string(tcp->port()) + "\n")) {
      return Status::Internal("cannot write client address");
    }
    std::signal(SIGTERM, KillDaemonsOnSignal);
    std::signal(SIGINT, KillDaemonsOnSignal);
    for (int i = 0; i < kRelays; ++i) {
      st = Spawn(i);
      if (!st.ok()) return st;
    }
    // Wait for the relays to publish their addresses, so the first
    // connect succeeds instead of racing the daemons' start-up and
    // backing off.
    for (int i = 0; i < kRelays; ++i) {
      const std::string addr = dir_ + "/relay" + std::to_string(i + 1) + ".addr";
      for (int waited_ms = 0; !fs::exists(addr); ++waited_ms) {
        if (waited_ms == 10'000) {
          return Status::Internal("relay did not publish " + addr);
        }
        usleep(1000);
      }
    }
    system_ = std::make_unique<wdl::System>(
        std::make_unique<TimedNetwork>(std::move(tcp)));
    client_ = system_->CreatePeer("client");
    client_->AddKnownPeer("relay1");
    st = LoadProgramText(client_, kClientProgram);
    if (!st.ok()) return st;
    // Preload an album; the first frames also open every connection.
    for (int i = 0; i < preload_; ++i) {
      Prepare();
      if (!(st = Issue()).ok()) return st;
    }
    st = Settle();
    pending_.clear();
    return st;
  }

  OpClass Prepare() override {
    const bool insert = live_.size() <= static_cast<size_t>(preload_) / 2 ||
                        step_++ % 2 == 0;
    if (insert) {
      id_ = next_id_++;
      live_.insert(id_);
    } else {
      auto it = live_.begin();
      std::advance(it, rng_.NextBelow(live_.size()));
      id_ = *it;
      live_.erase(it);
    }
    inserting_ = insert;
    pending_.push_back(id_);
    return OpClass::kWrite;
  }

  Status Issue() override {
    Fact fact("upload", "client", AlbumTuple(id_));
    return inserting_ ? Insert(client_, fact) : Remove(client_, fact);
  }

  /// Polls until every pending op is visible in the client's album.
  Status Settle() override {
    Span converge(span::kConverge);
    const int64_t start = NowNs();
    for (;;) {
      const int64_t t0 = NowNs();
      wdl::RoundReport report = system_->RunRound();
      ++polls_;
      if (report.envelopes_delivered == 0 && report.stages_run == 0) {
        wait_ns_ += NowNs() - t0;
      }
      if (Mismatches() == 0) return Status::OK();
      if ((NowNs() - start) / 1e6 > kVisibleTimeoutMs) {
        return Status::FailedPrecondition("writes not visible within 2 s");
      }
    }
  }

  size_t VerifyRecent() override {
    size_t bad = Mismatches();
    pending_.clear();
    return bad;
  }

  bool VerifyAll(bool corrupt) override {
    const wdl::Relation* album = client_->engine().catalog().Get("album");
    if (album == nullptr) return false;
    std::set<int64_t> want = live_, got;
    if (corrupt) want.insert(-1);
    album->ForEach([&](const wdl::Tuple& t) { got.insert(t[0].AsInt()); });
    if (want != got) return false;
    for (int64_t id : live_) {
      if (!album->Contains(AlbumTuple(id))) return false;
    }
    return true;
  }

  wdl::System& system() override { return *system_; }
  size_t cycle_length() const override { return 2; }
  bool rotate_cpus() const override { return false; }

  void AddMetrics(bool at_end, std::map<std::string, double>* out) override {
    uint64_t disk = 0;
    for (int i = 0; i < kRelays; ++i) disk += DirBytes(DataDir(i));
    if (!at_end) {
      disk0_ = disk;
      polls0_ = polls_;
      wait0_ = wait_ns_;
      return;
    }
    (*out)["disk_bytes"] = static_cast<double>(disk) - disk0_;
    (*out)["tcp_polls"] = static_cast<double>(polls_ - polls0_);
    (*out)["tcp_wait_ms"] = (wait_ns_ - wait0_) / 1e6;
    double rss = 0;
    for (int i = 0; i < kRelays; ++i) rss += PeakRssMb(pids_[i]);
    (*out)["daemons_peak_rss_mb"] = rss;
  }

  std::string Describe() const override {
    return std::string("relays: 2 wdl_peerd, --fsync batch (the default), "
                       "--snapshot-every ") +
           kSnapshotEvery + "\n";
  }

 private:
  std::string DataDir(int i) const {
    return dir_ + "/relay" + std::to_string(i + 1) + ".data";
  }

  wdl::Tuple AlbumTuple(int64_t id) const {
    return {Value::Int(id), Value::String("photo-" + std::to_string(id) +
                                          "-" + std::to_string(config_.seed))};
  }

  size_t Mismatches() const {
    const wdl::Relation* album = client_->engine().catalog().Get("album");
    size_t bad = 0;
    for (int64_t id : pending_) {
      bool visible = album != nullptr && album->Contains(AlbumTuple(id));
      bad += visible == (live_.count(id) > 0) ? 0 : 1;
    }
    return bad;
  }

  Status Spawn(int i) {
    const std::string name = "relay" + std::to_string(i + 1);
    std::vector<std::string> argv = {
        config_.peerd, "--name", name, "--program", dir_ + "/" + name + ".wdl",
        "--listen", "0", "--addr-file", dir_ + "/" + name + ".addr",
        "--data-dir", DataDir(i), "--fsync", "batch",
        "--snapshot-every", kSnapshotEvery};
    // Every peer knows every other's rendezvous file: hops go forward,
    // resync requests go back.
    for (const char* other : {"client", "relay1", "relay2"}) {
      if (name == other) continue;
      argv.push_back("--peer");
      argv.push_back(std::string(other) + "=@" + dir_ + "/" + other + ".addr");
    }
    const std::string log = dir_ + "/" + name + ".log";
    pid_t pid = fork();
    if (pid < 0) return Status::Internal("fork failed");
    if (pid == 0) {
      // Daemon output goes to its log: this process's stdout carries
      // the report.
      FILE* f = std::freopen(log.c_str(), "w", stdout);
      if (f == nullptr || dup2(fileno(stdout), STDERR_FILENO) < 0) _exit(126);
      std::vector<char*> args;
      for (std::string& a : argv) args.push_back(a.data());
      args.push_back(nullptr);
      execv(args[0], args.data());
      _exit(127);
    }
    pids_[i] = pid;
    g_daemons[i].store(pid);
    return Status::OK();
  }

  const Config config_;
  wdl::Rng rng_;
  const int preload_;
  std::string dir_;
  pid_t pids_[kRelays] = {0, 0};
  std::unique_ptr<wdl::System> system_;
  wdl::Peer* client_ = nullptr;

  std::set<int64_t> live_;  // the model: uploads not deleted
  int64_t next_id_ = 1;
  size_t step_ = 0;
  int64_t id_ = 0;
  bool inserting_ = true;
  std::vector<int64_t> pending_;

  uint64_t polls_ = 0, polls0_ = 0;
  int64_t wait_ns_ = 0, wait0_ = 0;
  uint64_t disk0_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeClusterTcp(const Config& config) {
  return std::make_unique<ClusterTcp>(config);
}

}  // namespace perfbench
