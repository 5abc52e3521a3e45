// Tracer / traced-array tests.
#include <gtest/gtest.h>

#include <vector>

#include "hvc/common/error.hpp"
#include "hvc/trace/trace.hpp"

namespace hvc::trace {
namespace {

/// Every record of a capture, decoded.
[[nodiscard]] std::vector<Record> decoded(const Tracer& tracer) {
  MemoryTraceSource source(tracer);
  std::vector<Record> records(source.size_hint());
  records.resize(source.next_batch(records.data(), records.size()));
  return records;
}

TEST(Tracer, BlockLayoutSequential) {
  Tracer t;
  const Block a = t.block(10);
  const Block b = t.block(5);
  EXPECT_EQ(a.base(), Tracer::kCodeBase);
  EXPECT_EQ(b.base(), Tracer::kCodeBase + 40);
}

TEST(Tracer, ExecEmitsFetchesAndBranch) {
  Tracer t;
  const Block a = t.block(3);
  t.exec(a, true);
  const std::vector<Record> records = decoded(t);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, Kind::kIfetch);
  EXPECT_EQ(records[0].addr, a.base());
  EXPECT_EQ(records[2].addr, a.base() + 8);
  EXPECT_EQ(records[3].kind, Kind::kBranch);
  EXPECT_TRUE(records[3].taken);
}

TEST(Tracer, DataAllocAligned) {
  Tracer t;
  const auto a = t.alloc_data(3, 4);
  const auto b = t.alloc_data(8, 8);
  EXPECT_EQ(a % 4, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 3);
  EXPECT_THROW((void)t.alloc_data(4, 3), hvc::PreconditionError);
}

TEST(TracedArray, RecordsLoadsAndStores) {
  Tracer t;
  Array<std::int32_t> arr(t, 8);
  arr.set(2, 42);
  EXPECT_EQ(arr.get(2), 42);
  const std::vector<Record> records = decoded(t);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, Kind::kStore);
  EXPECT_EQ(records[0].addr, arr.base() + 8);
  EXPECT_EQ(records[1].kind, Kind::kLoad);
  EXPECT_EQ(records[1].addr, arr.base() + 8);
}

TEST(TracedArray, RawAccessDoesNotTrace) {
  Tracer t;
  Array<std::int16_t> arr(t, 4);
  arr.set_raw(1, 7);
  EXPECT_EQ(arr.get_raw(1), 7);
  EXPECT_TRUE(t.records().empty());
}

TEST(TracedArray, OutOfRangeThrows) {
  Tracer t;
  Array<std::uint8_t> arr(t, 4);
  // volatile keeps GCC from const-propagating the deliberately
  // out-of-range index into the dead path (-Warray-bounds false positive).
  volatile std::size_t oob = 4;
  EXPECT_THROW((void)arr.get(oob), hvc::PreconditionError);
  EXPECT_THROW(arr.set(oob, 1), hvc::PreconditionError);
}

TEST(TracedArray, DistinctAddressRanges) {
  Tracer t;
  Array<std::int32_t> a(t, 16);
  Array<std::int32_t> b(t, 16);
  EXPECT_GE(b.base(), a.base() + 64);
  EXPECT_GE(a.base(), Tracer::kDataBase);
}

TEST(TraceStatsTest, Counts) {
  Tracer t;
  const Block loop = t.block(4);
  Array<std::int32_t> arr(t, 4);
  for (int i = 0; i < 3; ++i) {
    t.exec(loop, i < 2);
    arr.set(static_cast<std::size_t>(i), i);
    (void)arr.get(static_cast<std::size_t>(i));
  }
  const TraceStats s = t.stats();
  EXPECT_EQ(s.instructions, 12u);
  EXPECT_EQ(s.loads, 3u);
  EXPECT_EQ(s.stores, 3u);
  EXPECT_EQ(s.branches, 3u);
  EXPECT_EQ(s.taken_branches, 2u);
  EXPECT_EQ(s.code_footprint_bytes, 16u);
  EXPECT_GT(s.data_footprint_bytes, 0u);
}

TEST(Tracer, EmptyBlockThrows) {
  Tracer t;
  EXPECT_THROW((void)t.block(0), hvc::PreconditionError);
}

}  // namespace
}  // namespace hvc::trace
