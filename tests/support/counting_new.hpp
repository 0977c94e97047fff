// counting_new.hpp — global operator new/delete replacements that count
// allocations, so a zero-allocation property is a regression-tested
// invariant, not a code-review promise. Link counting_new.cpp into a
// suite to replace the operators for that gtest binary (each is its own
// process, so the replacements stay local to it).
#pragma once

#include <cstdint>

namespace dsm::test {

/// Calls to the replacement operator new / new[] so far.
std::uint64_t alloc_count();

}  // namespace dsm::test
