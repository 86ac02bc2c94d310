#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/arena.h"
#include "util/memory.h"
#include "util/pool.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace tinprov {
namespace {

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status bad = Status::InvalidArgument("negative quantity");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.ToString(), "INVALID_ARGUMENT: negative quantity");
}

TEST(StatusOrTest, ValueAndStatus) {
  StatusOr<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  StatusOr<int> bad(Status::NotFound("nope"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> moved = std::move(result).value();
  EXPECT_EQ(moved.size(), 3u);
}

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
  EXPECT_GT(watch.ElapsedSeconds(), 0.0);
  const double before_restart = watch.ElapsedSeconds();
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), before_restart + 1.0);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  Rng c(8);
  bool differs_from_c = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) differs_from_c = true;
  }
  EXPECT_TRUE(differs_from_c);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t x = rng.NextBounded(10);
    ASSERT_LT(x, 10u);
    ++counts[x];
  }
  for (const int count : counts) EXPECT_GT(count, 0);
}

TEST(ZipfTest, RanksInRangeAndSkewed) {
  Rng rng(3);
  ZipfDistribution zipf(1000, 1.2);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const uint64_t rank = zipf(rng);
    ASSERT_LT(rank, 1000u);
    ++counts[rank];
  }
  // Rank 0 must dominate the tail by a wide margin.
  EXPECT_GT(counts[0], 10 * counts[500] + 10);
  EXPECT_GT(counts[0], counts[1]);
}

TEST(ZipfTest, SupportsSkewOne) {
  Rng rng(4);
  ZipfDistribution zipf(100, 1.0);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_LT(zipf(rng), 100u);
  }
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(FormatSeconds(1.42), "1.42s");
  EXPECT_EQ(FormatSeconds(0.0371), "37.1ms");
  EXPECT_EQ(FormatSeconds(8.2e-3), "8.2ms");
  EXPECT_EQ(FormatSeconds(8.2e-5), "82us");
  EXPECT_EQ(FormatSeconds(5e-8), "50ns");
  EXPECT_EQ(FormatSeconds(-1.0), "-");
}

TEST(FormatTest, Bytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(size_t{1536}), "1.5KB");
  EXPECT_EQ(FormatBytes(size_t{5} << 20), "5.0MB");
  EXPECT_EQ(FormatBytes((size_t{3} << 30) / 2), "1.5GB");
}

TEST(FormatTest, Compact) {
  EXPECT_EQ(FormatCompact(19234.5, 1), "19.2K");
  EXPECT_EQ(FormatCompact(0.7, 2), "0.70");
  EXPECT_EQ(FormatCompact(34.4, 2), "34.40");
  EXPECT_EQ(FormatCompact(2.5e6, 1), "2.5M");
  EXPECT_EQ(FormatCompact(3.1e9, 2), "3.10B");
}

TEST(MemoryProbeTest, RssIsPlausibleOnLinux) {
#if defined(__linux__)
  EXPECT_GT(CurrentRssBytes(), 0u);
  EXPECT_GE(PeakRssBytes(), CurrentRssBytes() / 2);
#endif
}

TEST(SimdTest, AddMatchesScalar) {
  std::vector<double> dst(1001, 1.0);
  std::vector<double> src(1001);
  for (size_t i = 0; i < src.size(); ++i) src[i] = static_cast<double>(i);
  simd::Add(dst.data(), src.data(), src.size());
  for (size_t i = 0; i < src.size(); ++i) {
    ASSERT_DOUBLE_EQ(dst[i], 1.0 + static_cast<double>(i));
  }
}

TEST(SimdTest, ScaleAndSum) {
  std::vector<double> values(517, 2.0);
  simd::Scale(values.data(), 0.5, values.size());
  EXPECT_NEAR(simd::Sum(values.data(), values.size()),
              static_cast<double>(values.size()), 1e-9);
}

TEST(SimdTest, TransferFractionConservesMass) {
  std::vector<double> src(333);
  std::vector<double> dst(333);
  Rng rng(5);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = rng.NextDouble();
    dst[i] = rng.NextDouble();
  }
  const double before =
      simd::Sum(src.data(), src.size()) + simd::Sum(dst.data(), dst.size());
  simd::TransferFraction(dst.data(), src.data(), 0.3, src.size());
  const double after =
      simd::Sum(src.data(), src.size()) + simd::Sum(dst.data(), dst.size());
  EXPECT_NEAR(before, after, 1e-9);
}

TEST(SimdTest, ZeroLengthIsSafe) {
  simd::Add(nullptr, nullptr, 0);
  simd::Scale(nullptr, 2.0, 0);
  simd::TransferFraction(nullptr, nullptr, 0.5, 0);
  EXPECT_EQ(simd::Sum(nullptr, 0), 0.0);
}

TEST(ArenaTest, AllocationsAreAlignedAndCounted) {
  Arena arena;
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  void* a = arena.Allocate(24);
  void* b = arena.Allocate(1);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % Arena::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % Arena::kAlignment, 0u);
  EXPECT_GE(arena.bytes_used(), 32u + 16u);  // both rounded up
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_used());
}

TEST(ArenaTest, ReserveAvoidsFurtherChunks) {
  Arena arena;
  arena.Reserve(1 << 20);
  const size_t reserved = arena.bytes_reserved();
  for (int i = 0; i < 1000; ++i) arena.Allocate(1024);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
}

TEST(NodePoolTest, RecyclesFreedBlocks) {
  NodePool pool;
  void* block = pool.Allocate(100);  // class-rounded to 128
  pool.Deallocate(block, 100);
  // Same class -> the freed block comes straight back.
  EXPECT_EQ(pool.Allocate(128), block);
  // Different class -> fresh storage.
  EXPECT_NE(pool.Allocate(256), block);
}

struct TestPair {
  uint32_t origin = 0;
  double quantity = 0.0;
};

TEST(PooledVecTest, VectorBasicsOnHeapAndPool) {
  NodePool pool;
  PooledVec<TestPair> pooled(&pool);
  PooledVec<TestPair> heap;  // null pool -> global heap
  for (uint32_t i = 0; i < 100; ++i) {
    pooled.push_back({i, i * 2.0});
    heap.push_back({i, i * 2.0});
  }
  ASSERT_EQ(pooled.size(), 100u);
  ASSERT_EQ(heap.size(), 100u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(pooled[i].origin, heap[i].origin);
    EXPECT_EQ(pooled[i].quantity, heap[i].quantity);
  }
  EXPECT_GT(pool.bytes_reserved(), 0u);

  pooled.clear();
  EXPECT_TRUE(pooled.empty());
  EXPECT_GE(pooled.capacity(), 100u);  // clear keeps capacity
}

// Fills `vec` with {i, i + 0.5} for i < n.
void FillSequence(PooledVec<TestPair>* vec, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) vec->push_back({i, i + 0.5});
}

TEST(PooledVecTest, ShrinkIfSparseLeavesQuarterFullListsAlone) {
  NodePool pool;
  PooledVec<TestPair> vec(&pool);
  FillSequence(&vec, 64);
  vec.resize(16);  // exactly a quarter of the 64 slots
  const TestPair* block = vec.data();
  vec.ShrinkIfSparse();
  EXPECT_EQ(vec.data(), block);
  EXPECT_EQ(vec.capacity(), 64u);
}

TEST(PooledVecTest, ShrinkIfSparseKeepsContentsByteIdentical) {
  NodePool pool;
  PooledVec<TestPair> vec(&pool);
  FillSequence(&vec, 64);
  vec.resize(15);  // below a quarter of 64
  std::vector<unsigned char> before(15 * sizeof(TestPair));
  std::memcpy(before.data(), vec.data(), before.size());
  const TestPair* block = vec.data();
  vec.ShrinkIfSparse();
  EXPECT_NE(vec.data(), block);
  EXPECT_EQ(vec.size(), 15u);
  EXPECT_EQ(vec.capacity(), 30u);
  EXPECT_EQ(std::memcmp(before.data(), vec.data(), before.size()), 0);
}

TEST(PooledVecTest, ShrinkIfSparseHysteresisAvoidsThrashing) {
  NodePool pool;
  PooledVec<TestPair> vec(&pool);
  FillSequence(&vec, 64);
  vec.resize(16);
  // Oscillate one element around the quarter threshold: the first
  // crossing shrinks to 2 * 15 = 30 slots, after which neither a push
  // nor a pop crosses a boundary again.
  size_t reallocations = 0;
  const TestPair* block = vec.data();
  for (int step = 0; step < 100; ++step) {
    if (step % 2 == 0) {
      vec.ResizeUninitialized(vec.size() - 1);  // pop
    } else {
      vec.push_back({99, 9.9});
    }
    vec.ShrinkIfSparse();
    if (vec.data() != block) {
      ++reallocations;
      block = vec.data();
    }
  }
  EXPECT_EQ(reallocations, 1u);
  EXPECT_EQ(vec.capacity(), 30u);
}

TEST(PooledVecTest, ShrinkIfSparseReleasesAnEmptyListToThePool) {
  NodePool pool;
  PooledVec<TestPair> vec(&pool);
  FillSequence(&vec, 8);
  void* block = vec.data();
  const size_t block_bytes = vec.capacity() * sizeof(TestPair);
  vec.clear();
  EXPECT_EQ(vec.capacity(), 8u);  // clear() alone keeps the block
  vec.ShrinkIfSparse();
  EXPECT_EQ(vec.capacity(), 0u);
  EXPECT_EQ(vec.data(), nullptr);
  // The released block heads its class's free list.
  EXPECT_EQ(pool.Allocate(block_bytes), block);
}

TEST(PooledVecTest, InsertKeepsOrderAndResizeInitializes) {
  PooledVec<TestPair> vec = {{1, 1.0}, {5, 5.0}};
  vec.insert(vec.begin() + 1, {3, 3.0});
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_EQ(vec[0].origin, 1u);
  EXPECT_EQ(vec[1].origin, 3u);
  EXPECT_EQ(vec[2].origin, 5u);

  vec.resize(5);  // growth value-initializes
  EXPECT_EQ(vec[4].origin, 0u);
  EXPECT_EQ(vec[4].quantity, 0.0);
  vec.resize(2);  // shrink keeps the prefix
  ASSERT_EQ(vec.size(), 2u);
  EXPECT_EQ(vec[1].origin, 3u);
}

TEST(PooledVecTest, SwapCarriesThePoolWithTheStorage) {
  NodePool pool;
  PooledVec<TestPair> pooled(&pool);
  pooled.push_back({7, 7.0});
  PooledVec<TestPair> heap = {{9, 9.0}};
  pooled.swap(heap);
  EXPECT_EQ(pooled[0].origin, 9u);
  EXPECT_EQ(heap[0].origin, 7u);
  // Each block must still return to the allocator it came from after
  // the swap — ASan (CI's sanitize legs) would catch a mismatch when
  // these vectors destruct.
}

TEST(PooledVecTest, CopyAndMoveSemantics) {
  NodePool pool;
  PooledVec<TestPair> original(&pool);
  for (uint32_t i = 0; i < 10; ++i) original.push_back({i, 1.0});
  PooledVec<TestPair> copy = original;
  ASSERT_EQ(copy.size(), 10u);
  copy.push_back({99, 9.9});
  EXPECT_EQ(original.size(), 10u);  // deep copy

  PooledVec<TestPair> moved = std::move(copy);
  EXPECT_EQ(moved.size(), 11u);
  EXPECT_EQ(moved[10].origin, 99u);
}

TEST(GallopMergeTest, MatchesSimpleMergeOnRandomLists) {
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    // Random sorted lists with duplicates across (but not within) lists.
    auto make = [&rng](size_t len) {
      PooledVec<TestPair> v;
      uint32_t origin = 0;
      for (size_t i = 0; i < len; ++i) {
        origin += 1 + static_cast<uint32_t>(rng.NextBounded(6));
        v.push_back({origin, rng.NextDouble() + 0.1});
      }
      return v;
    };
    const PooledVec<TestPair> a = make(rng.NextBounded(64));
    const PooledVec<TestPair> b = make(rng.NextBounded(64));
    const double factor = 0.25;

    // Reference: naive two-pointer merge.
    std::vector<TestPair> expected;
    size_t i = 0;
    size_t j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i].origin < b[j].origin)) {
        expected.push_back(a[i++]);
      } else if (i == a.size() || b[j].origin < a[i].origin) {
        expected.push_back({b[j].origin, b[j].quantity * factor});
        ++j;
      } else {
        expected.push_back(
            {a[i].origin, a[i].quantity + b[j].quantity * factor});
        ++i;
        ++j;
      }
    }

    PooledVec<TestPair> out;
    out.ResizeUninitialized(a.size() + b.size());
    const size_t merged = simd::GallopMergeScaled(
        out.data(), a.data(), a.size(), b.data(), b.size(), factor);
    out.ResizeUninitialized(merged);
    ASSERT_EQ(out.size(), expected.size()) << "round " << round;
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(out[k].origin, expected[k].origin) << "round " << round;
      EXPECT_EQ(out[k].quantity, expected[k].quantity) << "round " << round;
    }
  }
}

TEST(GallopMergeTest, ScalePairsKernelsPreserveOriginBits) {
  PooledVec<TestPair> pairs;
  for (uint32_t i = 0; i < 37; ++i) {  // odd length exercises the tail
    pairs.push_back({0xDEADBEEFu - i, 1.5});
  }
  PooledVec<TestPair> scaled;
  scaled.ResizeUninitialized(pairs.size());
  simd::ScaleCopyPairs(scaled.data(), pairs.data(), 0.5, pairs.size());
  simd::ScalePairsInPlace(pairs.data(), 0.5, pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(scaled[i].origin, 0xDEADBEEFu - static_cast<uint32_t>(i));
    EXPECT_EQ(scaled[i].quantity, 0.75);
    EXPECT_EQ(pairs[i].origin, scaled[i].origin);
    EXPECT_EQ(pairs[i].quantity, 0.75);
  }
}

}  // namespace
}  // namespace tinprov
