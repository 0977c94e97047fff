#include "support/counting_new.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

// The replacements live in their own translation unit and are never
// inlined, so the compiler never sees a malloc'd pointer reach operator
// delete (g++ warns -Wmismatched-new-delete when it does).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

std::uint64_t dsm::test::alloc_count() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

[[gnu::noinline]] void* operator new(std::size_t sz) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz ? sz : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t sz) {
  return ::operator new(sz);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
