#include "qdcbir/cache/cache_manager.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "qdcbir/core/rng.h"

namespace qdcbir {
namespace cache {
namespace {

CacheKey Key(std::uint64_t a, CacheKind kind = CacheKind::kTopK) {
  CacheKey key;
  key.kind = kind;
  key.a = a;
  return key;
}

std::shared_ptr<const std::string> Payload(std::size_t size) {
  return std::make_shared<const std::string>(size, 'x');
}

/// Inserts a `size`-byte payload under `a`; expects success.
void MustInsert(CacheManager* cache, std::uint64_t a, std::size_t size,
                CacheKind kind = CacheKind::kTopK) {
  std::uint64_t epoch = 0;
  ASSERT_EQ(cache->LookupAs<std::string>(Key(a, kind), &epoch), nullptr);
  ASSERT_TRUE(cache->InsertAs<std::string>(Key(a, kind), Payload(size), size,
                                           epoch));
}

bool Contains(CacheManager* cache, std::uint64_t a,
              CacheKind kind = CacheKind::kTopK) {
  std::uint64_t epoch = 0;
  return cache->LookupAs<std::string>(Key(a, kind), &epoch) != nullptr;
}

TEST(CacheManagerTest, HitReturnsInsertedValue) {
  CacheManager::Options options;
  options.shard_count = 4;
  CacheManager cache(options);

  std::uint64_t epoch = 0;
  EXPECT_EQ(cache.LookupAs<std::string>(Key(7), &epoch), nullptr);
  auto value = std::make_shared<const std::string>("ranking-bytes");
  ASSERT_TRUE(cache.InsertAs<std::string>(Key(7), value, value->size(), epoch));

  std::uint64_t unused = 0;
  auto hit = cache.LookupAs<std::string>(Key(7), &unused);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "ranking-bytes");
  // Same payload object, not a copy: values are immutable and shared.
  EXPECT_EQ(hit.get(), value.get());

  const CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(CacheManagerTest, KeysDifferingInAnyWordOrKindAreDistinct) {
  CacheManager cache(CacheManager::Options{});
  CacheKey base = Key(1);
  base.b = 2;
  base.c = 3;
  std::uint64_t epoch = 0;
  cache.LookupAs<std::string>(base, &epoch);
  ASSERT_TRUE(cache.InsertAs<std::string>(base, Payload(8), 8, epoch));

  for (CacheKey probe :
       {Key(2), [&] { CacheKey k = base; k.b = 9; return k; }(),
        [&] { CacheKey k = base; k.c = 9; return k; }(),
        [&] {
          CacheKey k = base;
          k.kind = CacheKind::kRepresentatives;
          return k;
        }()}) {
    std::uint64_t unused = 0;
    EXPECT_EQ(cache.LookupAs<std::string>(probe, &unused), nullptr);
  }
  std::uint64_t unused = 0;
  EXPECT_NE(cache.LookupAs<std::string>(base, &unused), nullptr);
}

TEST(CacheManagerTest, ByteAccountingIsExactIncludingOverhead) {
  CacheManager::Options options;
  options.budget_bytes = 1 << 20;
  options.shard_count = 1;
  CacheManager cache(options);

  const std::size_t sizes[] = {0, 1, 100, 4096};
  std::uint64_t expected = 0;
  std::uint64_t id = 0;
  for (std::size_t size : sizes) {
    MustInsert(&cache, ++id, size);
    expected += size + CacheManager::kEntryOverheadBytes;
    EXPECT_EQ(cache.bytes_used(), expected);
  }
  EXPECT_EQ(cache.bytes_highwater(), expected);
  EXPECT_EQ(cache.TotalStats().entries, 4u);

  // BeginEpoch drops everything and returns the bytes — exactly.
  cache.BeginEpoch(/*snapshot_identity=*/123);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.TotalStats().entries, 0u);
  EXPECT_EQ(cache.bytes_highwater(), expected);  // highwater is monotonic
  EXPECT_EQ(cache.TotalStats().flushes, 1u);
  EXPECT_EQ(cache.snapshot_identity(), 123u);
}

TEST(CacheManagerTest, EvictionReleasesExactBytesOfVictim) {
  CacheManager::Options options;
  options.shard_count = 1;
  // Room for exactly two 100-byte entries plus overhead, not three.
  options.budget_bytes = 2 * (100 + CacheManager::kEntryOverheadBytes);
  CacheManager cache(options);

  MustInsert(&cache, 1, 100);
  MustInsert(&cache, 2, 100);
  EXPECT_EQ(cache.bytes_used(), options.budget_bytes);

  // Third insert must evict exactly one victim: bytes stay at the budget.
  MustInsert(&cache, 3, 100);
  EXPECT_EQ(cache.bytes_used(), options.budget_bytes);
  EXPECT_EQ(cache.bytes_highwater(), options.budget_bytes);
  const CacheStats stats = cache.TotalStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(CacheManagerTest, VictimIsLowestFrequencyThenOldest) {
  CacheManager::Options options;
  options.shard_count = 1;  // one shard: eviction order is fully observable
  options.budget_bytes = 3 * (64 + CacheManager::kEntryOverheadBytes);
  CacheManager cache(options);

  MustInsert(&cache, 1, 64);
  MustInsert(&cache, 2, 64);
  MustInsert(&cache, 3, 64);

  // Touch 1 twice and 3 once; 2 stays at frequency zero.
  ASSERT_TRUE(Contains(&cache, 1));
  ASSERT_TRUE(Contains(&cache, 1));
  ASSERT_TRUE(Contains(&cache, 3));

  MustInsert(&cache, 4, 64);  // evicts 2: lowest frequency
  EXPECT_TRUE(Contains(&cache, 1));
  EXPECT_FALSE(Contains(&cache, 2));
  EXPECT_TRUE(Contains(&cache, 3));

  // 3 (freq 2 after the Contains() above) vs 4 (freq 1): 4 goes. But first
  // equalize: after the probes above, 1 has freq 5, 3 has freq 3, 4 has
  // freq 1 — the victim of the next insert is 4, the lowest.
  MustInsert(&cache, 5, 64);
  EXPECT_FALSE(Contains(&cache, 4));
  EXPECT_TRUE(Contains(&cache, 3));
}

TEST(CacheManagerTest, TiedFrequenciesEvictOldestInsertFirst) {
  CacheManager::Options options;
  options.shard_count = 1;
  options.budget_bytes = 3 * (64 + CacheManager::kEntryOverheadBytes);
  CacheManager cache(options);

  MustInsert(&cache, 1, 64);
  MustInsert(&cache, 2, 64);
  MustInsert(&cache, 3, 64);
  // All at frequency zero: insertion order breaks the tie, oldest first.
  MustInsert(&cache, 4, 64);
  EXPECT_FALSE(Contains(&cache, 1));
  MustInsert(&cache, 5, 64);
  EXPECT_FALSE(Contains(&cache, 2));
  EXPECT_TRUE(Contains(&cache, 3));
}

TEST(CacheManagerTest, SeededAccessSequenceKeepsHotEntries) {
  // Property-style check: under a skewed random access pattern, the entries
  // the sequence hammers must survive budget pressure from a stream of
  // cold inserts, whatever the interleaving.
  CacheManager::Options options;
  options.shard_count = 1;
  options.budget_bytes = 8 * (32 + CacheManager::kEntryOverheadBytes);
  CacheManager cache(options);

  const std::uint64_t kHotA = 1000;
  const std::uint64_t kHotB = 1001;
  MustInsert(&cache, kHotA, 32);
  MustInsert(&cache, kHotB, 32);

  Rng rng(/*seed=*/20260807);
  std::uint64_t cold_id = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::uint64_t draw = rng.UniformInt(4);
    if (draw == 0) {
      EXPECT_TRUE(Contains(&cache, kHotA)) << "step " << step;
    } else if (draw == 1) {
      EXPECT_TRUE(Contains(&cache, kHotB)) << "step " << step;
    } else {
      std::uint64_t epoch = 0;
      cache.LookupAs<std::string>(Key(++cold_id), &epoch);
      cache.InsertAs<std::string>(Key(cold_id), Payload(32), 32, epoch);
    }
    ASSERT_LE(cache.bytes_used(), options.budget_bytes);
  }
  EXPECT_LE(cache.bytes_highwater(), options.budget_bytes);
  EXPECT_GT(cache.TotalStats().evictions, 0u);
}

TEST(CacheManagerTest, FrequencyWrapAroundAgesSaturatedEntry) {
  CacheManager::Options options;
  options.shard_count = 1;
  options.budget_bytes = 2 * (16 + CacheManager::kEntryOverheadBytes);
  CacheManager cache(options);

  // Drive entry 1 through the full uint16 range: 65536 hits wrap its
  // frequency back to exactly 0, making the former hot entry the coldest.
  MustInsert(&cache, 1, 16);
  for (int i = 0; i < 65536; ++i) {
    ASSERT_TRUE(Contains(&cache, 1));
  }
  MustInsert(&cache, 2, 16);
  ASSERT_TRUE(Contains(&cache, 2));  // entry 2 now has frequency 1

  // Budget forces one eviction; the wrapped entry (freq 0) loses to the
  // once-hit entry even though it absorbed 65536 hits in this lifetime.
  MustInsert(&cache, 3, 16);
  EXPECT_FALSE(Contains(&cache, 1));
  EXPECT_TRUE(Contains(&cache, 2));
}

TEST(CacheManagerTest, OversizedPayloadIsRejectedNotInserted) {
  CacheManager::Options options;
  options.shard_count = 1;
  options.budget_bytes = 256;
  CacheManager cache(options);

  MustInsert(&cache, 1, 64);
  std::uint64_t epoch = 0;
  cache.LookupAs<std::string>(Key(2), &epoch);
  EXPECT_FALSE(cache.InsertAs<std::string>(Key(2), Payload(4096), 4096, epoch));
  // The resident entry is untouched; the reject is counted.
  EXPECT_TRUE(Contains(&cache, 1));
  EXPECT_EQ(cache.TotalStats().rejected, 1u);
  EXPECT_EQ(cache.bytes_used(), 64 + CacheManager::kEntryOverheadBytes);
}

TEST(CacheManagerTest, StaleEpochTokenIsRejected) {
  CacheManager cache(CacheManager::Options{});
  std::uint64_t epoch = 0;
  EXPECT_EQ(cache.LookupAs<std::string>(Key(1), &epoch), nullptr);

  // Snapshot reload between the miss and the insert: the token is stale.
  cache.BeginEpoch(/*snapshot_identity=*/1);
  EXPECT_FALSE(cache.InsertAs<std::string>(Key(1), Payload(8), 8, epoch));
  EXPECT_FALSE(Contains(&cache, 1));
  EXPECT_GE(cache.TotalStats().rejected, 1u);

  // A fresh miss hands out the new epoch, which inserts fine.
  std::uint64_t fresh = 0;
  EXPECT_EQ(cache.LookupAs<std::string>(Key(1), &fresh), nullptr);
  EXPECT_TRUE(cache.InsertAs<std::string>(Key(1), Payload(8), 8, fresh));
  EXPECT_TRUE(Contains(&cache, 1));
}

TEST(CacheManagerTest, DuplicateInsertIsSuccessWithoutDoubleCharge) {
  CacheManager::Options options;
  options.shard_count = 1;
  CacheManager cache(options);

  std::uint64_t epoch = 0;
  cache.LookupAs<std::string>(Key(1), &epoch);
  ASSERT_TRUE(cache.InsertAs<std::string>(Key(1), Payload(32), 32, epoch));
  const std::uint64_t bytes_after_first = cache.bytes_used();
  // A racing duplicate (same key, same epoch) reports success but must not
  // charge a second copy.
  EXPECT_TRUE(cache.InsertAs<std::string>(Key(1), Payload(32), 32, epoch));
  EXPECT_EQ(cache.bytes_used(), bytes_after_first);
  EXPECT_EQ(cache.TotalStats().entries, 1u);
}

TEST(CacheManagerTest, KindStatsAttributeTrafficPerKind) {
  CacheManager cache(CacheManager::Options{});
  MustInsert(&cache, 1, 16, CacheKind::kRepresentatives);
  MustInsert(&cache, 1, 16, CacheKind::kTopK);
  ASSERT_TRUE(Contains(&cache, 1, CacheKind::kTopK));
  ASSERT_TRUE(Contains(&cache, 1, CacheKind::kTopK));

  EXPECT_EQ(cache.KindStats(CacheKind::kTopK).hits, 2u);
  EXPECT_EQ(cache.KindStats(CacheKind::kRepresentatives).hits, 0u);
  EXPECT_EQ(cache.KindStats(CacheKind::kRepresentatives).insertions, 1u);
  for (CacheKind kind : {CacheKind::kRepresentatives, CacheKind::kTopK}) {
    EXPECT_EQ(cache.KindStats(kind).entries, 1u);
    EXPECT_EQ(cache.KindStats(kind).bytes_used,
              16u + CacheManager::kEntryOverheadBytes);
  }
  const CacheStats total = cache.TotalStats();
  EXPECT_EQ(total.entries, 2u);
  EXPECT_EQ(total.hits, 2u);
}

TEST(CacheManagerTest, HashBytesIsDeterministicAndPositionSensitive) {
  const char data[] = "weights:0.25,0.75";
  EXPECT_EQ(HashBytes(data, sizeof(data)), HashBytes(data, sizeof(data)));
  const char swapped[] = "weights:0.75,0.25";
  EXPECT_NE(HashBytes(data, sizeof(data)), HashBytes(swapped, sizeof(swapped)));
  EXPECT_NE(HashCombine(HashCombine(0, 1), 2),
            HashCombine(HashCombine(0, 2), 1));
}

TEST(CacheManagerTest, ShardCountIsClamped) {
  CacheManager::Options options;
  options.shard_count = 0;
  EXPECT_EQ(CacheManager(options).shard_count(), 1u);
  options.shard_count = 100000;
  EXPECT_EQ(CacheManager(options).shard_count(), 256u);
}

}  // namespace
}  // namespace cache
}  // namespace qdcbir
