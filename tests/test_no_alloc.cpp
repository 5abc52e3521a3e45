// Heap-allocation pins for the per-record checks. A passing expects() or
// ensure() must not allocate, and neither may the checks on the two
// per-record paths that carry one: traced array accesses during workload
// generation and the arbiter's begin_request in every multi-core round.
// The binary replaces the global operator new with a counting one, so it
// is its own test executable; each case counts the allocations made
// between two reads of the counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "hvc/cache/arbiter.hpp"
#include "hvc/cache/memory.hpp"
#include "hvc/cache/memory_level.hpp"
#include "hvc/common/error.hpp"
#include "hvc/trace/trace.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace hvc {
namespace {

[[nodiscard]] std::size_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

/// Opaque to the optimizer, so a check's outcome is decided at run time.
volatile bool g_true = true;

TEST(NoAlloc, PassingChecksDoNotAllocate) {
  const std::size_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    expects(g_true, "a precondition message well past fifteen characters");
    ensure(g_true, "an invariant message well past fifteen characters");
  }
  EXPECT_EQ(allocations() - before, 0u);
}

TEST(NoAlloc, FailingChecksStillReportTextAndCallSite) {
  try {
    expects(!g_true, "the precondition that failed");
    FAIL() << "expects(false) did not throw";
  } catch (const PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("the precondition that failed"), std::string::npos);
    EXPECT_NE(what.find("test_no_alloc.cpp"), std::string::npos) << what;
  }
  try {
    ensure(!g_true, "the invariant that failed");
    FAIL() << "ensure(false) did not throw";
  } catch (const InvariantError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("the invariant that failed"), std::string::npos);
    EXPECT_NE(what.find("test_no_alloc.cpp"), std::string::npos) << what;
  }
}

TEST(NoAlloc, TracedArrayAccessesDoNotAllocate) {
  constexpr std::size_t kCalls = 10000;
  trace::Tracer tracer;
  tracer.reserve(kCalls);
  trace::Array<std::int32_t> array(tracer, 64);
  std::int64_t sum = 0;
  const std::size_t before = allocations();
  for (std::size_t i = 0; i < kCalls; ++i) {
    if (i % 2 == 0) {
      array.set(i % 64, static_cast<std::int32_t>(i));
    } else {
      sum += array.get((i - 1) % 64);  // the element just written
    }
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(tracer.records().size(), kCalls);
  EXPECT_GT(sum, 0);
}

TEST(NoAlloc, ArbiterBeginRequestDoesNotAllocate) {
  constexpr std::size_t kCores = 4;
  cache::MainMemory memory;
  cache::MainMemoryLevel terminal(memory, cache::kPaperMemoryLatencyCycles);
  cache::ArbitratedLevel arbiter(terminal, kCores, 1.0);
  const std::size_t before = allocations();
  for (std::size_t i = 0; i < 10000; ++i) {
    arbiter.begin_request(i % kCores);
    if (i % kCores == kCores - 1) {
      arbiter.new_round();
    }
  }
  EXPECT_EQ(allocations() - before, 0u);
}

}  // namespace
}  // namespace hvc
