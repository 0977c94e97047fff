#include "sim/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include "common/assert.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "sim::Scheduler has only an x86-64 fiber switch: port dsm_sim_fiber_switch and dsm_sim_fiber_start (scheduler.cpp) to this ISA"
#endif

// The fiber context switch, x86-64 System V. dsm_sim_fiber_switch(save,
// to) pushes the callee-saved registers on the running stack, stores the
// stack pointer in *save, loads `to`, and pops the registers saved there:
// its `ret` resumes that fiber where it last switched away. run() lays a
// fresh fiber's stack out so that the first switch "returns" into
// dsm_sim_fiber_start with the entry function in %r12 and its argument in
// %r13. The MXCSR and x87 control words are not switched: nothing in the
// simulator changes them, so every fiber keeps the calling thread's.
extern "C" void dsm_sim_fiber_switch(void** save, void* to);
extern "C" void dsm_sim_fiber_start();

asm(R"(
  .text
  .globl dsm_sim_fiber_switch
  .type dsm_sim_fiber_switch, @function
dsm_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size dsm_sim_fiber_switch, .-dsm_sim_fiber_switch

  .globl dsm_sim_fiber_start
  .type dsm_sim_fiber_start, @function
dsm_sim_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r13, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size dsm_sim_fiber_start, .-dsm_sim_fiber_start
)");

namespace dsm::sim {

Scheduler::Scheduler(unsigned num_threads)
    : n_(num_threads),
      cycles_(num_threads, 0),
      states_(num_threads, State::kRunnable) {
  DSM_ASSERT(n_ > 0);
}

void Scheduler::run(const ThreadFn& fn) {
  DSM_ASSERT_MSG(!ran_, "a Scheduler instance runs once");
  ran_ = true;
  fn_ = &fn;

  // Slot i is [guard page][kStackBytes of stack], growing down to the guard.
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  slot_bytes_ = page + kStackBytes;
  const std::size_t len = slot_bytes_ * n_;
  sp_.assign(n_, nullptr);  // first, so a bad_alloc cannot leak the mapping
  void* map = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  DSM_ASSERT_MSG(map != MAP_FAILED, "fiber stack mmap failed");
  stacks_ = static_cast<std::byte*>(map);
  for (unsigned i = 0; i < n_; ++i) {
    std::byte* slot = stacks_ + slot_bytes_ * i;
    DSM_ASSERT_MSG(::mprotect(slot, page, PROT_NONE) == 0,
                   "fiber guard page mprotect failed");
    // The frame dsm_sim_fiber_switch pops: r15 r14 r13 r12 rbx rbp, then
    // the return address. rbp = 0 ends frame-pointer walks here.
    auto** sp = reinterpret_cast<void**>(slot + slot_bytes_);
    *--sp = reinterpret_cast<void*>(&dsm_sim_fiber_start);
    *--sp = nullptr;                                          // rbp
    *--sp = nullptr;                                          // rbx
    *--sp = reinterpret_cast<void*>(&Scheduler::fiber_main);  // r12
    *--sp = this;                                             // r13
    *--sp = nullptr;                                          // r14
    *--sp = nullptr;                                          // r15
    sp_[i] = sp;
  }
#if defined(__SANITIZE_THREAD__)
  tsan_caller_ = __tsan_get_current_fiber();
  for (unsigned i = 0; i < n_; ++i)
    tsan_fibers_.push_back(__tsan_create_fiber(0));
#endif

  dispatch(false);  // returns once every fiber has finished

#if defined(__SANITIZE_THREAD__)
  for (void* f : tsan_fibers_) __tsan_destroy_fiber(f);
  tsan_fibers_.clear();
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Frames that never returned (every fiber_main) leave poisoned shadow;
  // clear it, or the next mapping at these addresses inherits it.
  __asan_unpoison_memory_region(stacks_, len);
#endif
  ::munmap(stacks_, len);
  stacks_ = nullptr;
  fn_ = nullptr;
}

void Scheduler::fiber_main(void* self) noexcept {
  Scheduler& s = *static_cast<Scheduler*>(self);
#if defined(__SANITIZE_ADDRESS__)
  // The first fiber is entered from run()'s caller: remember its stack,
  // the one the last finishing fiber switches back to.
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
  if (s.asan_caller_bottom_ == nullptr) {
    s.asan_caller_bottom_ = from_bottom;
    s.asan_caller_size_ = from_size;
  }
#endif
  const auto tid = static_cast<unsigned>(s.current_);
  (*s.fn_)(tid);
  s.states_[tid] = State::kFinished;
  s.dispatch(true);
  __builtin_unreachable();
}

void Scheduler::dispatch(bool finished) {
  const int next = pick();
  if (next < 0) {
    for (const State st : states_)
      DSM_ASSERT_MSG(st == State::kFinished,
                     "simulated deadlock: blocked threads but none runnable");
    switch_to(-1, finished);
    return;
  }
  ++switches_;
  if (next != current_) switch_to(next, finished);
}

void Scheduler::switch_to(int next, bool finished) {
  void** save = current_ < 0 ? &caller_sp_ : &sp_[current_];
  void* to = next < 0 ? caller_sp_ : sp_[next];
  current_ = next;
#if defined(__SANITIZE_ADDRESS__)
  // A finished fiber passes no fake-stack slot, so ASan frees its fake
  // stack; it never resumes.
  void* fake_stack = nullptr;
  const void* bottom =
      next < 0 ? asan_caller_bottom_
               : stacks_ + slot_bytes_ * static_cast<unsigned>(next) +
                     (slot_bytes_ - kStackBytes);
  __sanitizer_start_switch_fiber(finished ? nullptr : &fake_stack, bottom,
                                 next < 0 ? asan_caller_size_ : kStackBytes);
#else
  (void)finished;
#endif
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(
      next < 0 ? tsan_caller_ : tsan_fibers_[static_cast<unsigned>(next)], 0);
#endif
  dsm_sim_fiber_switch(save, to);
#if defined(__SANITIZE_ADDRESS__)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

int Scheduler::pick() const {
  int best = -1;
  for (unsigned i = 0; i < n_; ++i) {
    if (states_[i] != State::kRunnable) continue;
    if (best < 0 || cycles_[i] < cycles_[static_cast<unsigned>(best)])
      best = static_cast<int>(i);
  }
  return best;
}

Cycle Scheduler::cycle(unsigned tid) const {
  DSM_ASSERT(tid < n_);
  return cycles_[tid];
}

void Scheduler::advance(unsigned tid, Cycle dc) {
  DSM_ASSERT(tid < n_);
  cycles_[tid] += dc;
}

void Scheduler::set_cycle(unsigned tid, Cycle c) {
  DSM_ASSERT(tid < n_);
  cycles_[tid] = c;
}

void Scheduler::yield(unsigned tid) {
  DSM_ASSERT(tid < n_);
  DSM_ASSERT(states_[tid] == State::kRunnable);
  dispatch(false);
}

void Scheduler::block(unsigned tid) {
  DSM_ASSERT(tid < n_);
  states_[tid] = State::kBlocked;
  dispatch(false);
  DSM_ASSERT(states_[tid] == State::kRunnable);
}

void Scheduler::unblock(unsigned tid) {
  DSM_ASSERT(tid < n_);
  DSM_ASSERT_MSG(states_[tid] == State::kBlocked,
                 "unblock of a non-blocked thread");
  states_[tid] = State::kRunnable;
}

bool Scheduler::only_runnable(unsigned tid) const {
  for (unsigned i = 0; i < n_; ++i) {
    if (i == tid) continue;
    if (states_[i] == State::kRunnable) return false;
  }
  return true;
}

}  // namespace dsm::sim
