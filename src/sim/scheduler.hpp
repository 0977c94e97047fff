// scheduler.hpp — deterministic cooperative scheduling of simulated
// processors.
//
// Each simulated processor runs as a stackful fiber on the thread that
// calls run(), and exactly one is ever executing. A fiber that yields,
// blocks, or finishes switches straight to the runnable fiber with the
// smallest local cycle count (ties by id), with no OS thread, kernel call,
// or coordinator in between. Min-cycle-first keeps the per-processor
// clocks in near-lockstep, so the memory-controller and network contention
// models observe requests in approximately global time order — and every
// run is bit-reproducible. A Scheduler shares no state with any other, so
// independent Machines may run on different OS threads at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/assert.hpp"
#include "common/types.hpp"

namespace dsm::sim {

class Scheduler {
 public:
  using ThreadFn = std::function<void(unsigned tid)>;

  /// Usable stack of every fiber, mapped in run() below a PROT_NONE guard
  /// page: an overflow faults instead of corrupting a neighbour. The four
  /// paper apps touch at most 8 KiB of it, FMM/32 at paper scale included
  /// (resident-page high-water mark after a Release run).
  static constexpr std::size_t kStackBytes = std::size_t{1} << 20;

  explicit Scheduler(unsigned num_threads);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Runs `fn(tid)` on every simulated processor to completion.
  /// May be called once per Scheduler instance.
  void run(const ThreadFn& fn);

  unsigned num_threads() const { return n_; }

  // ---- calls from inside simulated threads ----

  /// Local clock of thread `tid` (readable/advanceable by its own code and
  /// by releasers at sync points).
  Cycle cycle(unsigned tid) const;
  void advance(unsigned tid, Cycle dc);
  void set_cycle(unsigned tid, Cycle c);

  /// Stable pointer to `tid`'s clock slot, for flattened per-op loops
  /// (sim::Machine) that read/advance the clock millions of times per
  /// run: same memory every cycle()/advance() call touches, minus the
  /// bounds check and call per op. The slot lives as long as the
  /// Scheduler and is only ever written by the running thread (or by a
  /// releaser at a sync point, exactly like advance()).
  Cycle* cycle_slot(unsigned tid) {
    DSM_ASSERT(tid < n_);
    return &cycles_[tid];
  }

  /// Cooperatively give up the processor; the thread stays runnable and
  /// will resume when it again holds the minimum clock.
  void yield(unsigned tid);

  /// Mark self blocked and give up the processor; resumes only after
  /// another thread calls unblock(tid).
  void block(unsigned tid);

  /// Make a blocked thread runnable again (called by the running thread
  /// performing the release).
  void unblock(unsigned tid);

  /// True when every other thread is blocked or finished (used by the
  /// deadlock detector and by tests).
  bool only_runnable(unsigned tid) const;

  /// Dispatches: the first one, one per yield and block, and one per
  /// finish that leaves a thread runnable. A pick that re-picks the
  /// yielding thread counts too, though it switches nothing.
  std::uint64_t context_switches() const { return switches_; }

 private:
  enum class State : std::uint8_t { kRunnable, kBlocked, kFinished };

  /// Picks the runnable thread with the minimum (cycle, tid); -1 if none.
  int pick() const;

  /// Hands the processor to pick()'s choice, or back to run()'s caller
  /// once every thread has finished; returns when the caller is next
  /// picked (never, for a finished thread).
  void dispatch(bool finished);
  void switch_to(int next, bool finished);
  [[noreturn]] static void fiber_main(void* self) noexcept;

  unsigned n_;
  std::vector<Cycle> cycles_;
  std::vector<State> states_;
  std::vector<void*> sp_;    ///< saved stack pointer of each suspended fiber
  void* caller_sp_ = nullptr;  ///< run()'s caller while the fibers run
  int current_ = -1;           ///< running fiber; -1 = run()'s caller
  const ThreadFn* fn_ = nullptr;
  std::byte* stacks_ = nullptr;  ///< one mapping for every stack, in run()
  std::size_t slot_bytes_ = 0;   ///< guard page + kStackBytes
  std::uint64_t switches_ = 0;
  bool ran_ = false;
#if defined(__SANITIZE_ADDRESS__)
  const void* asan_caller_bottom_ = nullptr;
  std::size_t asan_caller_size_ = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  void* tsan_caller_ = nullptr;
  std::vector<void*> tsan_fibers_;
#endif
};

}  // namespace dsm::sim
