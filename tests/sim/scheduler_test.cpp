#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

namespace dsm::sim {
namespace {

TEST(SchedulerTest, RunsEveryThreadOnce) {
  Scheduler s(4);
  std::vector<int> ran(4, 0);
  s.run([&](unsigned tid) { ++ran[tid]; });
  for (const int r : ran) EXPECT_EQ(r, 1);
}

TEST(SchedulerTest, MinCycleFirstOrdering) {
  // Threads advance different amounts per yield; the execution trace must
  // interleave in min-cycle order.
  Scheduler s(2);
  std::vector<std::pair<unsigned, Cycle>> trace;
  s.run([&](unsigned tid) {
    for (int i = 0; i < 5; ++i) {
      trace.emplace_back(tid, s.cycle(tid));
      s.advance(tid, tid == 0 ? 10 : 25);  // thread 0 is "faster"
      s.yield(tid);
    }
  });
  // At every trace point, the running thread's cycle must be <= the cycle
  // the other thread resumed with next.
  for (std::size_t i = 0; i + 1 < trace.size(); ++i) {
    EXPECT_LE(trace[i].second, trace[i + 1].second + 25)
        << "entry " << i;  // bounded skew
  }
  // Thread 0 (cheaper steps) must run more often early on.
  unsigned zeros_in_first_half = 0;
  for (std::size_t i = 0; i < trace.size() / 2; ++i)
    zeros_in_first_half += (trace[i].first == 0);
  EXPECT_GE(zeros_in_first_half, trace.size() / 4);
}

TEST(SchedulerTest, DeterministicInterleaving) {
  auto run_once = [] {
    Scheduler s(4);
    std::vector<unsigned> order;
    s.run([&](unsigned tid) {
      for (int i = 0; i < 8; ++i) {
        order.push_back(tid);
        s.advance(tid, (tid + 1) * 7);
        s.yield(tid);
      }
    });
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(SchedulerTest, BlockUnblockHandshake) {
  Scheduler s(2);
  bool woke = false;
  s.run([&](unsigned tid) {
    if (tid == 0) {
      s.block(tid);  // sleeps until thread 1 unblocks us
      woke = true;
    } else {
      s.advance(tid, 100);
      s.unblock(0);
      s.set_cycle(0, 150);
    }
  });
  EXPECT_TRUE(woke);
}

TEST(SchedulerTest, CycleAccessors) {
  Scheduler s(2);
  s.run([&](unsigned tid) {
    if (tid == 1) {
      s.advance(tid, 42);
      EXPECT_EQ(s.cycle(tid), 42u);
      s.set_cycle(tid, 1000);
      EXPECT_EQ(s.cycle(tid), 1000u);
    }
  });
}

TEST(SchedulerTest, ContextSwitchesCounted) {
  Scheduler s(2);
  s.run([&](unsigned tid) {
    for (int i = 0; i < 3; ++i) {
      s.advance(tid, 1);
      s.yield(tid);
    }
  });
  // At least one dispatch per thread turn.
  EXPECT_GE(s.context_switches(), 8u);
}

TEST(SchedulerTest, OnlyRunnableDetectsLoneliness) {
  Scheduler s(2);
  bool observed = false;
  s.run([&](unsigned tid) {
    if (tid == 0) {
      s.block(tid);
    } else {
      observed = s.only_runnable(tid);
      s.unblock(0);
    }
  });
  EXPECT_TRUE(observed);
}

std::size_t os_thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++n;
  return n;
}

TEST(SchedulerTest, RunStartsNoOsThread) {
  const std::size_t before = os_thread_count();
  Scheduler s(8);
  std::vector<std::size_t> seen(8, 0);
  s.run([&](unsigned tid) {
    s.advance(tid, tid + 1);
    s.yield(tid);
    seen[tid] = os_thread_count();
  });
  for (const std::size_t n : seen) EXPECT_EQ(n, before);
}

// Each frame holds a 1 KiB buffer the compiler must keep: the add after
// the call rules out a tail call, and the volatile rules out folding.
[[gnu::noinline]] unsigned recurse(unsigned depth) {
  volatile char pad[1024];
  pad[0] = static_cast<char>(depth);
  pad[sizeof pad - 1] = 1;
  if (depth == 0) return static_cast<unsigned char>(pad[0]);
  return recurse(depth - 1) + static_cast<unsigned char>(pad[sizeof pad - 1]);
}

TEST(SchedulerTest, FiberRecursesHalfItsStack) {
  // 512 frames of > 1 KiB each: over half of kStackBytes on every fiber.
  constexpr unsigned kDepth = Scheduler::kStackBytes / 2 / 1024;
  Scheduler s(4);
  std::vector<unsigned> got(4, 0);
  s.run([&](unsigned tid) {
    s.advance(tid, 1);
    s.yield(tid);  // the other fibers' stacks are live meanwhile
    got[tid] = recurse(kDepth);
  });
  for (const unsigned g : got) EXPECT_EQ(g, kDepth);
}

TEST(SchedulerTest, ConcurrentSchedulersShareNoState) {
  auto trace = [](std::latch* both_running) {
    Scheduler s(4);
    std::vector<unsigned> order;
    s.run([&](unsigned tid) {
      for (int i = 0; i < 200; ++i) {
        // Both Schedulers are inside a fiber at once before either goes
        // on: any switch state shared between them would cross over.
        if (both_running != nullptr && tid == 0 && i == 0)
          both_running->arrive_and_wait();
        order.push_back(tid);
        s.advance(tid, (tid + 1) * 7 + static_cast<unsigned>(i % 3));
        s.yield(tid);
      }
    });
    return std::pair(order, s.context_switches());
  };
  const auto want = trace(nullptr);
  std::latch both_running(2);
  decltype(trace(nullptr)) got[2];
  std::thread a([&] { got[0] = trace(&both_running); });
  std::thread b([&] { got[1] = trace(&both_running); });
  a.join();
  b.join();
  EXPECT_EQ(got[0], want);
  EXPECT_EQ(got[1], want);
}

TEST(SchedulerDeathTest, StackOverflowHitsGuardPage) {
  // A little over kStackBytes of frames: the fiber must die on its guard
  // page. Without one it would run on into fiber 0's stack, which sits
  // just below, and finish.
  EXPECT_DEATH(
      {
        Scheduler s(2);
        s.run([&](unsigned tid) {
          if (tid == 1) recurse(Scheduler::kStackBytes / 1024 + 64);
        });
      },
      "");
}

TEST(SchedulerDeathTest, DeadlockAborts) {
  // Every thread blocks and nobody unblocks: the coordinator must abort
  // with a diagnostic rather than hang.
  EXPECT_DEATH(
      {
        Scheduler s(2);
        s.run([&](unsigned tid) { s.block(tid); });
      },
      "deadlock");
}

}  // namespace
}  // namespace dsm::sim
