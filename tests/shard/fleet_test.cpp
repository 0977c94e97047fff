// fleet_test.cpp — run_fleet() end to end over the preconnected-fd seam,
// with scripted in-process "workers" speaking the pull protocol over real
// socketpairs: happy-path merge, worker death mid-sweep (byte-identical
// recovery — the acceptance bar), duplicate-record discard, truncated
// frames, resume-from-store leasing only the gaps, the lease ledger, the
// empty sweep, and the teardown interleavings (a hello the coordinator
// reads only after the sweep is done, a peer that never closes). No
// forks, no sleeps: deaths are socket closes, and the default 30 s
// heartbeat deadline never fires in a sub-second test; only the
// never-closing peer shortens it, to bound its teardown.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shard/coordinator.hpp"
#include "shard/fleet_msg.hpp"
#include "shard/pull_worker.hpp"
#include "shard/resume.hpp"
#include "shard/stream_sink.hpp"
#include "shard/transport.hpp"

namespace dsm::shard {
namespace {

constexpr char kBench[] = "fleet_test_bench";

/// The content-derived record for one spec index — every scripted worker
/// produces identical bytes for the same index, mirroring the real
/// harness's content-hashed seeds (what makes re-leases byte-safe).
std::string record_line(std::size_t index) {
  StreamRecord r;
  r.spec_index = index;
  r.key = "cfg/" + std::to_string(index);
  r.seed = 0x1000 + index;
  r.metrics = "{}";
  return format_record(kBench, r);
}

/// A scratch file path unique to this process, so parallel runs of the
/// suite (the repeat stress) never share a lease log or store.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name + "." + std::to_string(::getpid());
}

/// The expected merged output for a `total`-point sweep.
std::string expected_output(std::size_t total) {
  std::string out;
  for (std::size_t i = 0; i < total; ++i) out += record_line(i) + "\n";
  return out;
}

struct WorkerScript {
  /// Die (close the socket) once this many records were emitted.
  std::size_t die_after = ~std::size_t{0};
  /// When dying, first send half a record with no terminator.
  bool truncate_on_death = false;
  /// Send the first record of the first lease twice (a re-lease race).
  bool duplicate_first = false;
  /// Runs before hello is sent (holds the hello back when it blocks).
  std::function<void()> before_hello;
  /// Runs after the worker is done and its socket is closed.
  std::function<void()> on_exit;
  /// Receives the coordinator's reply to hello.
  std::string* hello_reply = nullptr;
  /// After the hello reply, never pull and never close first: read and
  /// drop whatever arrives until the coordinator closes its end.
  bool never_close = false;
};

/// One scripted pull worker over an already-connected fd. Records every
/// lease range it was granted into `leases` (under `mu`).
void run_worker(int fd, std::size_t total, const WorkerScript& script,
                std::vector<Lease>* leases = nullptr,
                std::mutex* mu = nullptr) {
  FdTransport t(fd);
  if (script.before_hello) script.before_hello();
  if (!t.send_line(format_hello(kBench, total))) return;
  std::string line;
  if (!t.recv_line(&line)) return;
  if (script.hello_reply != nullptr) *script.hello_reply = line;
  if (script.never_close) {
    while (t.recv_line(&line)) {
    }
    return;
  }
  // A fin here means the sweep finished before our hello was read.
  const auto reply = parse_fleet_msg(line);
  if (!reply || reply->type != FleetMsg::Type::kWelcome) return;
  std::size_t emitted = 0;
  bool first_record = true;
  for (;;) {
    if (!t.send_line(format_pull())) return;
    if (!t.recv_line(&line)) return;
    const auto msg = parse_fleet_msg(line);
    if (!msg || msg->type != FleetMsg::Type::kLease) return;  // fin
    if (leases != nullptr) {
      std::lock_guard<std::mutex> lock(*mu);
      leases->push_back({static_cast<std::size_t>(msg->lo),
                         static_cast<std::size_t>(msg->hi)});
    }
    for (std::size_t idx = msg->lo; idx < msg->hi; ++idx) {
      if (emitted >= script.die_after) {
        if (script.truncate_on_death)
          t.send_raw(record_line(idx).substr(0, 10));
        return;  // ~FdTransport closes the fd: EOF at the coordinator
      }
      if (!t.send_line(record_line(idx))) return;
      if (first_record && script.duplicate_first)
        if (!t.send_line(record_line(idx))) return;
      first_record = false;
      ++emitted;
    }
  }
}

/// Spawns `scripts.size()` scripted workers, runs the fleet against
/// them, and returns {exit code, merged stdout bytes}.
struct FleetRun {
  int rc = -1;
  std::string output;
};

FleetRun run_scripted_fleet(std::size_t total,
                            const std::vector<WorkerScript>& scripts,
                            FleetOptions opt = {}) {
  std::vector<std::thread> threads;
  opt.workers = static_cast<unsigned>(scripts.size());
  for (const auto& script : scripts) {
    int sv[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    opt.preconnected_fds.push_back(sv[0]);
    threads.emplace_back([fd = sv[1], total, script] {
      run_worker(fd, total, script);
      if (script.on_exit) script.on_exit();
    });
  }
  FleetRun result;
  std::FILE* out = std::tmpfile();
  EXPECT_NE(out, nullptr);
  result.rc = run_fleet(opt, out);
  for (auto& th : threads) th.join();
  std::rewind(out);
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, out)) > 0)
    result.output.append(buf, n);
  std::fclose(out);
  return result;
}

TEST(FleetTest, MergesSpecOrderedOutputFromConcurrentWorkers) {
  const auto run = run_scripted_fleet(12, {{}, {}, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(12));
}

TEST(FleetTest, SingleWorkerFleetMatches) {
  const auto run = run_scripted_fleet(5, {{}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(5));
}

TEST(FleetTest, WorkerDeathMidSweepRecoversByteIdentical) {
  // The acceptance bar: one worker dies mid-stream; the survivor drains
  // the released lease and the merged bytes are exactly the undisturbed
  // run's.
  WorkerScript dies;
  dies.die_after = 2;
  const auto run = run_scripted_fleet(10, {dies, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(10));
}

TEST(FleetTest, AllButOneWorkerDyingStillCompletes) {
  WorkerScript dies_now;
  dies_now.die_after = 0;  // dies on its first lease, emitting nothing
  const auto run = run_scripted_fleet(8, {dies_now, dies_now, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(8));
}

TEST(FleetTest, EveryWorkerDyingFailsTheRun) {
  WorkerScript dies;
  dies.die_after = 1;
  const auto run = run_scripted_fleet(10, {dies, dies});
  EXPECT_NE(run.rc, 0);  // preconnected mode has no respawn: fleet fails
}

TEST(FleetTest, DuplicateRecordsAreDiscardedFirstCompleteWins) {
  WorkerScript dup;
  dup.duplicate_first = true;
  const auto run = run_scripted_fleet(6, {dup, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(6));  // the dup never reaches out
}

TEST(FleetTest, TruncatedDeathFrameIsDiscardedNotMerged) {
  WorkerScript truncates;
  truncates.die_after = 1;
  truncates.truncate_on_death = true;
  const auto run = run_scripted_fleet(8, {truncates, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(8));
}

TEST(FleetTest, EmptySweepFinsEveryoneAndSucceeds) {
  const auto run = run_scripted_fleet(0, {{}, {}});
  EXPECT_EQ(run.rc, 0);
  EXPECT_TRUE(run.output.empty());
}

TEST(FleetTest, HelloReadAfterTheSweepIsAnsweredWithFin) {
  // The interleaving that once hung teardown: the coordinator finishes
  // the sweep and fins every connected slot, including one whose hello
  // it has not read yet. Hold worker 1's hello until worker 0 has been
  // fin'd, so the reply to that hello can only be fin — which must end
  // the worker cleanly, and the fleet must still succeed.
  std::promise<void> first_done;
  const std::shared_future<void> first_done_f =
      first_done.get_future().share();
  WorkerScript first;
  first.on_exit = [&first_done] { first_done.set_value(); };
  std::string reply;
  WorkerScript held;
  held.before_hello = [first_done_f] { first_done_f.wait(); };
  held.hello_reply = &reply;
  const auto run = run_scripted_fleet(6, {first, held});
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(6));
  const auto msg = parse_fleet_msg(reply);
  ASSERT_TRUE(msg.has_value()) << reply;
  EXPECT_EQ(msg->type, FleetMsg::Type::kFin);
}

TEST(FleetTest, PullWorkerTakesFinForHelloAsACleanFinish) {
  // The real worker's side of the same interleaving: fin in place of the
  // welcome is a clean handshake with no work — the harness loop runs no
  // lease and exits 0 (transport intact).
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::thread coordinator([fd = sv[0]] {
    FdTransport t(fd);
    std::string hello;
    ASSERT_TRUE(t.recv_line(&hello));
    EXPECT_EQ(parse_fleet_msg(hello)->type, FleetMsg::Type::kHello);
    ASSERT_TRUE(t.send_line(format_fin()));
  });
  Endpoint ep;
  ep.is_fd = true;
  ep.fd = sv[1];
  {
    PullWorker worker(ep, kBench, 3);
    EXPECT_TRUE(worker.ok());
    EXPECT_FALSE(worker.next_lease().has_value());
    EXPECT_FALSE(worker.transport_lost());
  }
  coordinator.join();
}

TEST(FleetTest, TeardownGivesUpOnAPeerThatNeverCloses) {
  // A peer that neither answers nor closes after fin must not wedge a
  // completed fleet: the drain gives up after the heartbeat deadline,
  // closes the slot, and the run still succeeds with complete output.
  FleetOptions opt;
  opt.tuning.heartbeat_deadline_ms = 1000;
  WorkerScript silent;
  silent.never_close = true;
  const auto run = run_scripted_fleet(4, {{}, silent}, opt);
  EXPECT_EQ(run.rc, 0);
  EXPECT_EQ(run.output, expected_output(4));
}

TEST(FleetTest, LeaseLogRecordsLeasedAndDoneEvents) {
  const std::string log_path = temp_path("fleet_test_lease.log");
  std::remove(log_path.c_str());
  FleetOptions opt;
  opt.lease_log = log_path;
  const auto run = run_scripted_fleet(6, {{}, {}}, opt);
  EXPECT_EQ(run.rc, 0);

  std::FILE* f = std::fopen(log_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::size_t leased = 0, done = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    std::string s(line);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    LeaseEvent ev;
    ASSERT_TRUE(parse_lease_event(s, &ev)) << s;
    if (ev.state == "leased") ++leased;
    if (ev.state == "done") ++done;
  }
  std::fclose(f);
  EXPECT_GT(leased, 0u);
  EXPECT_EQ(done, 2u);  // one per worker at teardown
  std::remove(log_path.c_str());
}

TEST(FleetTest, ResumeLeasesOnlyTheGapsAndCompletesTheStore) {
  // Store holds indices 0,1,4 of a 6-point sweep (plus a truncated tail
  // — a previous fleet died mid-write). The resumed fleet must re-emit
  // the recovered records, lease only {2,3,5}, and produce bytes
  // identical to an undisturbed complete run.
  const std::string store = temp_path("fleet_test_resume.ndjson");
  {
    std::FILE* f = std::fopen(store.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (const std::size_t idx : {0, 1, 4}) {
      const std::string l = record_line(idx);
      std::fwrite(l.data(), 1, l.size(), f);
      std::fputc('\n', f);
    }
    const std::string half = record_line(5).substr(0, 25);
    std::fwrite(half.data(), 1, half.size(), f);  // no terminator
    std::fclose(f);
  }

  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::vector<Lease> leases;
  std::mutex mu;
  std::thread worker([&, fd = sv[1]] {
    run_worker(fd, 6, WorkerScript{}, &leases, &mu);
  });

  FleetOptions opt;
  opt.workers = 1;
  opt.preconnected_fds.push_back(sv[0]);
  opt.resume_store = store;
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  const int rc = run_fleet(opt, out);
  worker.join();
  EXPECT_EQ(rc, 0);

  std::rewind(out);
  std::string merged;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, out)) > 0) merged.append(buf, n);
  std::fclose(out);
  EXPECT_EQ(merged, expected_output(6));

  // The worker must never have been leased a recovered index.
  for (const auto& l : leases)
    for (std::size_t idx = l.lo; idx < l.hi; ++idx)
      EXPECT_TRUE(idx == 2 || idx == 3 || idx == 5)
          << "re-leased recovered index " << idx;
  std::remove(store.c_str());
}

TEST(FleetTest, MismatchedResumeStoreFailsTheRun) {
  // A store whose indices exceed the sweep is the wrong store — resuming
  // over it silently would bless a mismatched merge.
  const std::string store = temp_path("fleet_test_wrong.ndjson");
  {
    std::FILE* f = std::fopen(store.c_str(), "w");
    ASSERT_NE(f, nullptr);
    const std::string l = record_line(9);  // sweep below has 4 points
    std::fwrite(l.data(), 1, l.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  FleetOptions opt;
  opt.resume_store = store;
  const auto run = run_scripted_fleet(4, {{}}, opt);
  EXPECT_NE(run.rc, 0);
  std::remove(store.c_str());
}

}  // namespace
}  // namespace dsm::shard
