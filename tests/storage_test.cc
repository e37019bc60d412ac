#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "util/random.h"

namespace vdb::storage {
namespace {

TEST(PageTest, TypedReadWrite) {
  Page page;
  page.WriteAt<uint32_t>(100, 0xdeadbeef);
  page.WriteAt<int64_t>(200, -42);
  EXPECT_EQ(page.ReadAt<uint32_t>(100), 0xdeadbeefu);
  EXPECT_EQ(page.ReadAt<int64_t>(200), -42);
  page.Zero();
  EXPECT_EQ(page.ReadAt<uint32_t>(100), 0u);
}

TEST(RecordIdTest, PackUnpackRoundTrip) {
  const RecordId rid{123456789ULL, 4321};
  const RecordId back = RecordId::Unpack(rid.Pack());
  EXPECT_EQ(back, rid);
}

TEST(DiskManagerTest, AllocateReadWrite) {
  DiskManager disk;
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  EXPECT_NE(a, b);
  EXPECT_EQ(disk.NumPages(), 2u);
  Page page;
  page.WriteAt<uint64_t>(0, 77);
  disk.WritePage(a, page);
  Page out;
  disk.ReadPage(a, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 77u);
  disk.ReadPage(b, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 0u);
}

class BufferPoolTest : public ::testing::Test {
 protected:
  DiskManager disk_;
};

TEST_F(BufferPoolTest, HitsAndMissesCounted) {
  BufferPool pool(&disk_, 4);
  const PageId p = disk_.AllocatePage();
  auto page = pool.FetchPage(p, AccessPattern::kSequential);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ(pool.stats().sequential_misses, 1u);
  EXPECT_EQ(pool.stats().hits, 0u);
  page = pool.FetchPage(p, AccessPattern::kRandom);
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().Misses(), 1u);
}

TEST_F(BufferPoolTest, EvictsUnpinnedWhenFull) {
  BufferPool pool(&disk_, 2);
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) pages.push_back(disk_.AllocatePage());
  for (const PageId p : pages) {
    auto page = pool.FetchPage(p, AccessPattern::kRandom);
    ASSERT_TRUE(page.ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  EXPECT_EQ(pool.stats().random_misses, 4u);
  EXPECT_LE(pool.NumCachedPages(), 2u);
}

TEST_F(BufferPoolTest, FailsWhenAllPinned) {
  BufferPool pool(&disk_, 2);
  const PageId a = disk_.AllocatePage();
  const PageId b = disk_.AllocatePage();
  const PageId c = disk_.AllocatePage();
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.FetchPage(b, AccessPattern::kRandom).ok());
  auto third = pool.FetchPage(c, AccessPattern::kRandom);
  EXPECT_TRUE(third.status().IsResourceExhausted());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  third = pool.FetchPage(c, AccessPattern::kRandom);
  EXPECT_TRUE(third.ok());
}

TEST_F(BufferPoolTest, DirtyPageWrittenBackOnEvict) {
  BufferPool pool(&disk_, 1);
  const PageId a = disk_.AllocatePage();
  const PageId b = disk_.AllocatePage();
  {
    auto page = pool.FetchPage(a, AccessPattern::kRandom);
    ASSERT_TRUE(page.ok());
    (*page)->WriteAt<uint64_t>(0, 99);
    ASSERT_TRUE(pool.UnpinPage(a, true).ok());
  }
  // Force eviction of `a`.
  ASSERT_TRUE(pool.FetchPage(b, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(b, false).ok());
  Page out;
  disk_.ReadPage(a, &out);
  EXPECT_EQ(out.ReadAt<uint64_t>(0), 99u);
  EXPECT_GE(pool.stats().page_writes, 1u);
}

TEST_F(BufferPoolTest, PinnedPageSurvivesEvictionPressure) {
  BufferPool pool(&disk_, 2);
  const PageId a = disk_.AllocatePage();
  auto page = pool.FetchPage(a, AccessPattern::kRandom);
  ASSERT_TRUE(page.ok());
  (*page)->WriteAt<uint64_t>(0, 1234);
  for (int i = 0; i < 10; ++i) {
    const PageId p = disk_.AllocatePage();
    auto other = pool.FetchPage(p, AccessPattern::kRandom);
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  // `a` is still resident and intact.
  auto again = pool.FetchPage(a, AccessPattern::kRandom);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *page);
  EXPECT_EQ((*again)->ReadAt<uint64_t>(0), 1234u);
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
}

TEST_F(BufferPoolTest, UnpinErrors) {
  BufferPool pool(&disk_, 2);
  const PageId a = disk_.AllocatePage();
  EXPECT_TRUE(pool.UnpinPage(a, false).IsNotFound());
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  EXPECT_TRUE(pool.UnpinPage(a, false).IsInternal());
}

TEST_F(BufferPoolTest, EvictAllColdStarts) {
  BufferPool pool(&disk_, 4);
  const PageId a = disk_.AllocatePage();
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(a, true).ok());
  ASSERT_TRUE(pool.EvictAll().ok());
  EXPECT_EQ(pool.NumCachedPages(), 0u);
  pool.ResetStats();
  ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kRandom).ok());
  ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  EXPECT_EQ(pool.stats().random_misses, 1u);
}

TEST_F(BufferPoolTest, ResizeShrinkKeepsPinned) {
  BufferPool pool(&disk_, 8);
  const PageId pinned = disk_.AllocatePage();
  auto page = pool.FetchPage(pinned, AccessPattern::kRandom);
  ASSERT_TRUE(page.ok());
  (*page)->WriteAt<uint64_t>(8, 555);
  for (int i = 0; i < 6; ++i) {
    const PageId p = disk_.AllocatePage();
    ASSERT_TRUE(pool.FetchPage(p, AccessPattern::kRandom).ok());
    ASSERT_TRUE(pool.UnpinPage(p, false).ok());
  }
  ASSERT_TRUE(pool.Resize(2).ok());
  EXPECT_EQ(pool.capacity_pages(), 2u);
  auto again = pool.FetchPage(pinned, AccessPattern::kRandom);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->ReadAt<uint64_t>(8), 555u);
  ASSERT_TRUE(pool.UnpinPage(pinned, false).ok());
  ASSERT_TRUE(pool.UnpinPage(pinned, true).ok());
  ASSERT_TRUE(pool.Resize(16).ok());
  EXPECT_EQ(pool.capacity_pages(), 16u);
}

class IoCounter : public IoListener {
 public:
  void OnPageRead(AccessPattern pattern) override {
    if (pattern == AccessPattern::kSequential) {
      ++seq;
    } else {
      ++random;
    }
  }
  void OnPageWrite() override { ++writes; }
  int seq = 0;
  int random = 0;
  int writes = 0;
};

TEST_F(BufferPoolTest, ListenerSeesPhysicalIoOnly) {
  BufferPool pool(&disk_, 4);
  IoCounter counter;
  pool.SetIoListener(&counter);
  const PageId a = disk_.AllocatePage();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(pool.FetchPage(a, AccessPattern::kSequential).ok());
    ASSERT_TRUE(pool.UnpinPage(a, false).ok());
  }
  EXPECT_EQ(counter.seq, 1);  // one miss, two hits
  EXPECT_EQ(counter.random, 0);
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&disk_, 16), heap_(&disk_, &pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  HeapFile heap_;
};

TEST_F(HeapFileTest, InsertAndGet) {
  auto rid = heap_.Insert("hello world");
  ASSERT_TRUE(rid.ok());
  auto rec = heap_.Get(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "hello world");
  EXPECT_EQ(heap_.NumRecords(), 1u);
}

TEST_F(HeapFileTest, EmptyRecordAllowed) {
  auto rid = heap_.Insert("");
  ASSERT_TRUE(rid.ok());
  auto rec = heap_.Get(*rid);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(*rec, "");
}

TEST_F(HeapFileTest, RejectsOversizedRecord) {
  const std::string huge(kPageSize, 'x');
  EXPECT_TRUE(heap_.Insert(huge).status().IsInvalidArgument());
}

TEST_F(HeapFileTest, SpillsToMultiplePages) {
  const std::string record(1000, 'r');
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(heap_.Insert(record).ok());
  }
  EXPECT_GT(heap_.NumPages(), 1u);
  EXPECT_EQ(heap_.NumRecords(), 30u);
}

TEST_F(HeapFileTest, ScanSeesAllRecordsInOrder) {
  std::vector<std::string> inserted;
  for (int i = 0; i < 100; ++i) {
    inserted.push_back("record-" + std::to_string(i) +
                       std::string(i % 50, 'p'));
    ASSERT_TRUE(heap_.Insert(inserted.back()).ok());
  }
  std::vector<std::string> scanned;
  for (auto it = heap_.Begin(); it.Valid(); it.Next()) {
    scanned.push_back(it.record());
  }
  EXPECT_EQ(scanned, inserted);
}

TEST_F(HeapFileTest, DeleteHidesRecord) {
  auto a = heap_.Insert("a");
  auto b = heap_.Insert("b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(heap_.Delete(*a).ok());
  EXPECT_TRUE(heap_.Get(*a).status().IsNotFound());
  EXPECT_TRUE(heap_.Get(*b).ok());
  EXPECT_EQ(heap_.NumRecords(), 1u);
  int count = 0;
  for (auto it = heap_.Begin(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 1);
  // Double delete reports NotFound.
  EXPECT_TRUE(heap_.Delete(*a).IsNotFound());
}

TEST_F(HeapFileTest, GetInvalidSlot) {
  auto rid = heap_.Insert("x");
  ASSERT_TRUE(rid.ok());
  RecordId bad = *rid;
  bad.slot = 99;
  EXPECT_TRUE(heap_.Get(bad).status().IsNotFound());
}

TEST_F(HeapFileTest, ScanOfEmptyHeapIsInvalid) {
  auto it = heap_.Begin();
  EXPECT_FALSE(it.Valid());
}

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 64), tree_(&disk_, &pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  BPlusTree tree_;
};

TEST_F(BTreeTest, EmptyTreeLookups) {
  auto values = tree_.Lookup(5);
  ASSERT_TRUE(values.ok());
  EXPECT_TRUE(values->empty());
  EXPECT_FALSE(tree_.Begin().Valid());
  EXPECT_EQ(tree_.NumEntries(), 0u);
  EXPECT_EQ(tree_.Height(), 1u);
}

TEST_F(BTreeTest, InsertAndLookup) {
  ASSERT_TRUE(tree_.Insert(10, 100).ok());
  ASSERT_TRUE(tree_.Insert(20, 200).ok());
  ASSERT_TRUE(tree_.Insert(15, 150).ok());
  auto v = tree_.Lookup(15);
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->size(), 1u);
  EXPECT_EQ((*v)[0], 150u);
  EXPECT_TRUE(tree_.Lookup(16)->empty());
  EXPECT_EQ(tree_.NumEntries(), 3u);
}

TEST_F(BTreeTest, DuplicateKeys) {
  for (uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(tree_.Insert(7, 1000 + i).ok());
  }
  auto v = tree_.Lookup(7);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 10u);
  std::set<uint64_t> values(v->begin(), v->end());
  EXPECT_EQ(values.size(), 10u);
}

TEST_F(BTreeTest, SplitsKeepOrder) {
  // Enough entries to force several leaf splits and a root split.
  Random rng(17);
  std::vector<int64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.UniformInt(0, 100000));
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(tree_.Insert(keys[i], i).ok());
  }
  EXPECT_GT(tree_.Height(), 1u);
  EXPECT_EQ(tree_.NumEntries(), keys.size());
  std::vector<int64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  size_t index = 0;
  for (auto it = tree_.Begin(); it.Valid(); it.Next()) {
    ASSERT_LT(index, sorted.size());
    EXPECT_EQ(it.key(), sorted[index]) << "at position " << index;
    ++index;
  }
  EXPECT_EQ(index, sorted.size());
}

TEST_F(BTreeTest, SeekGEFindsFirstAtLeast) {
  for (int64_t k = 0; k < 1000; k += 10) {
    ASSERT_TRUE(tree_.Insert(k, static_cast<uint64_t>(k)).ok());
  }
  auto it = tree_.SeekGE(95);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 100);
  it = tree_.SeekGE(100);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 100);
  it = tree_.SeekGE(0);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 0);
  it = tree_.SeekGE(991);
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeTest, RangeScan) {
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree_.Insert(k, static_cast<uint64_t>(k * 2)).ok());
  }
  int64_t expected = 500;
  for (auto it = tree_.SeekGE(500); it.Valid() && it.key() <= 1500;
       it.Next()) {
    EXPECT_EQ(it.key(), expected);
    EXPECT_EQ(it.value(), static_cast<uint64_t>(expected * 2));
    ++expected;
  }
  EXPECT_EQ(expected, 1501);
}

TEST_F(BTreeTest, DuplicatesAcrossSplits) {
  // Insert many duplicates of a few keys to force duplicates to span leaves.
  for (int rep = 0; rep < 800; ++rep) {
    for (int64_t k = 0; k < 3; ++k) {
      ASSERT_TRUE(
          tree_.Insert(k, static_cast<uint64_t>(rep * 10 + k)).ok());
    }
  }
  for (int64_t k = 0; k < 3; ++k) {
    auto v = tree_.Lookup(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->size(), 800u) << "key " << k;
  }
}

TEST_F(BTreeTest, DeleteRemovesSingleEntry) {
  ASSERT_TRUE(tree_.Insert(5, 50).ok());
  ASSERT_TRUE(tree_.Insert(5, 51).ok());
  ASSERT_TRUE(tree_.Delete(5, 50).ok());
  auto v = tree_.Lookup(5);
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->size(), 1u);
  EXPECT_EQ((*v)[0], 51u);
  EXPECT_TRUE(tree_.Delete(5, 50).IsNotFound());
  EXPECT_TRUE(tree_.Delete(99, 1).IsNotFound());
  EXPECT_EQ(tree_.NumEntries(), 1u);
}

TEST_F(BTreeTest, DeleteInLargeTree) {
  for (int64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree_.Insert(k, static_cast<uint64_t>(k)).ok());
  }
  for (int64_t k = 0; k < 3000; k += 2) {
    ASSERT_TRUE(tree_.Delete(k, static_cast<uint64_t>(k)).ok());
  }
  EXPECT_EQ(tree_.NumEntries(), 1500u);
  for (int64_t k = 0; k < 3000; ++k) {
    auto v = tree_.Lookup(k);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->size(), (k % 2 == 0) ? 0u : 1u) << "key " << k;
  }
}

TEST_F(BTreeTest, WorksWithTinyBufferPool) {
  // The tree must function when the pool is much smaller than the tree.
  DiskManager disk;
  BufferPool pool(&disk, 4);
  BPlusTree tree(&disk, &pool);
  for (int64_t k = 0; k < 4000; ++k) {
    ASSERT_TRUE(tree.Insert(k * 7 % 4000, static_cast<uint64_t>(k)).ok());
  }
  EXPECT_EQ(tree.NumEntries(), 4000u);
  uint64_t count = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 4000u);
  EXPECT_GT(pool.stats().Misses(), 0u);
}

// --- Byte identity of tree builds ------------------------------------------
//
// Index builds are part of the simulated workload: their page images, page
// ids and buffer-pool counters feed every later charge. These tests pin
// them for fixed insert sequences, so a change to how nodes are searched or
// edited must leave every byte (stale bytes past a node's key count
// included) and every pool counter as it was.

uint64_t Fnv1a(const char* data, size_t n, uint64_t hash) {
  for (size_t i = 0; i < n; ++i) {
    hash ^= static_cast<uint8_t>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

uint64_t DiskDigest(const DiskManager& disk) {
  uint64_t hash = 14695981039346656037ULL;
  Page page;
  for (PageId id = 0; id < disk.NumPages(); ++id) {
    disk.ReadPage(id, &page);
    hash = Fnv1a(page.data(), kPageSize, hash);
  }
  return hash;
}

// Tree shape and pool counters, then the digest of every page after a
// flush (the counters are taken before it).
std::string Snapshot(const BPlusTree& tree, BufferPool* pool,
                     const DiskManager& disk) {
  const BufferPoolStats stats = pool->stats();
  pool->FlushAll();
  return "pages=" + std::to_string(tree.NumPages()) +
         " height=" + std::to_string(tree.Height()) +
         " entries=" + std::to_string(tree.NumEntries()) +
         " hits=" + std::to_string(stats.hits) +
         " seq=" + std::to_string(stats.sequential_misses) +
         " rand=" + std::to_string(stats.random_misses) +
         " writes=" + std::to_string(stats.page_writes) +
         " digest=" + std::to_string(DiskDigest(disk)) + "\n";
}

// Inserts (keys[i], i) for every i, deletes every third entry, and checks
// SeekGE walks against a reference multimap (equal keys in insertion
// order). Returns the snapshots after the inserts and after the deletes.
std::string BuildDeleteAndSeek(const std::vector<int64_t>& keys,
                               uint64_t frames) {
  DiskManager disk;
  BufferPool pool(&disk, frames);
  BPlusTree tree(&disk, &pool);
  std::multimap<int64_t, uint64_t> reference;
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(tree.Insert(keys[i], i).ok());
    reference.emplace(keys[i], i);
  }
  std::string out = Snapshot(tree, &pool, disk);
  for (size_t i = 0; i < keys.size(); i += 3) {
    EXPECT_TRUE(tree.Delete(keys[i], i).ok()) << "entry " << i;
    auto [lo, hi] = reference.equal_range(keys[i]);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == i) {
        reference.erase(it);
        break;
      }
    }
  }
  EXPECT_TRUE(tree.Delete(keys[0], 0).IsNotFound());
  EXPECT_EQ(tree.NumEntries(), reference.size());
  const auto [min_key, max_key] = std::minmax_element(keys.begin(), keys.end());
  std::vector<int64_t> probes = {*min_key - 1, *max_key, *max_key + 1};
  for (size_t i = 1; i < keys.size(); i += 97) probes.push_back(keys[i]);
  for (const int64_t probe : probes) {
    auto expected = reference.lower_bound(probe);
    auto it = tree.SeekGE(probe);
    // 600 steps cross at least one leaf boundary (leaves hold <= 500).
    for (int step = 0; step < 600 && expected != reference.end();
         ++step, ++expected, it.Next()) {
      if (!it.Valid() || it.key() != expected->first ||
          it.value() != expected->second) {
        ADD_FAILURE() << "SeekGE(" << probe << ") diverges at step " << step;
        break;
      }
    }
    if (expected == reference.end()) {
      EXPECT_FALSE(it.Valid()) << "SeekGE(" << probe << ") overruns";
    }
  }
  return out + Snapshot(tree, &pool, disk);
}

std::vector<int64_t> RandomKeysWithDuplicates() {
  Random rng(29);
  std::vector<int64_t> keys;
  for (int i = 0; i < 5000; ++i) keys.push_back(rng.UniformInt(0, 999));
  return keys;
}

TEST(BTreeShapeTest, AscendingKeys) {
  std::vector<int64_t> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  EXPECT_EQ(BuildDeleteAndSeek(keys, 64),
            "pages=20 height=2 entries=5000 hits=14535 seq=0 rand=20 writes=0"
            " digest=17756702753778455972\n"
            "pages=20 height=2 entries=3333 hits=19869 seq=0 rand=20 writes=20"
            " digest=15727177685200588501\n");
}

TEST(BTreeShapeTest, DescendingKeys) {
  std::vector<int64_t> keys(5000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>(keys.size() - i);
  }
  EXPECT_EQ(BuildDeleteAndSeek(keys, 64),
            "pages=20 height=2 entries=5000 hits=14535 seq=0 rand=20 writes=0"
            " digest=8061717653317785852\n"
            "pages=20 height=2 entries=3333 hits=19873 seq=0 rand=20 writes=20"
            " digest=10799499347855353414\n");
}

TEST(BTreeShapeTest, RandomKeysWithDuplicates) {
  EXPECT_EQ(BuildDeleteAndSeek(RandomKeysWithDuplicates(), 64),
            "pages=17 height=2 entries=5000 hits=14529 seq=0 rand=17 writes=0"
            " digest=12836373519739202312\n"
            "pages=17 height=2 entries=3333 hits=19863 seq=0 rand=17 writes=17"
            " digest=15368451052241325900\n");
}

TEST(BTreeShapeTest, RandomKeysWithDuplicatesThreeFramePool) {
  EXPECT_EQ(BuildDeleteAndSeek(RandomKeysWithDuplicates(), 3),
            "pages=17 height=2 entries=5000"
            " hits=11405 seq=0 rand=3141 writes=2918"
            " digest=12836373519739202312\n"
            "pages=17 height=2 entries=3333"
            " hits=14972 seq=0 rand=4908 writes=4347"
            " digest=15368451052241325900\n");
}

TEST(BTreeShapeTest, ThreeLevelTreeSplitsInternalNodes) {
  // Ascending inserts leave leaves half full, so 150K keys need > 500
  // leaves: the root splits once more and the tree grows to three levels.
  std::vector<int64_t> keys(150000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  EXPECT_EQ(BuildDeleteAndSeek(keys, 16),
            "pages=602 height=3 entries=150000"
            " hits=475192 seq=0 rand=606 writes=590"
            " digest=7658786559059015002\n"
            "pages=602 height=3 entries=100000"
            " hits=685938 seq=0 rand=1812 writes=1204"
            " digest=11958834667821968508\n");
}

// Property test: tree contents always match a reference multimap across a
// random interleaving of inserts and deletes, for several seeds.
class BTreeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeFuzzTest, MatchesReferenceMultimap) {
  SCOPED_TRACE("re-run this seed with VDB_TEST_SEED=" +
               std::to_string(GetParam()));
  DiskManager disk;
  BufferPool pool(&disk, 32);
  BPlusTree tree(&disk, &pool);
  std::multimap<int64_t, uint64_t> reference;
  Random rng(GetParam());
  for (int op = 0; op < 4000; ++op) {
    const int64_t key = rng.UniformInt(0, 200);
    if (rng.NextDouble() < 0.7 || reference.empty()) {
      const uint64_t value = rng.NextUint64() % 1000000;
      ASSERT_TRUE(tree.Insert(key, value).ok());
      reference.emplace(key, value);
    } else {
      auto it = reference.find(key);
      if (it != reference.end()) {
        ASSERT_TRUE(tree.Delete(key, it->second).ok());
        reference.erase(it);
      } else {
        EXPECT_TRUE(tree.Delete(key, 0xdead).IsNotFound());
      }
    }
  }
  ASSERT_EQ(tree.NumEntries(), reference.size());
  // Compare full ordered contents.
  auto it = tree.Begin();
  for (const auto& [key, value] : reference) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), key);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
  // Compare per-key value sets.
  for (int64_t key = 0; key <= 200; ++key) {
    auto values = tree.Lookup(key);
    ASSERT_TRUE(values.ok());
    auto range = reference.equal_range(key);
    std::multiset<uint64_t> expected;
    for (auto r = range.first; r != range.second; ++r) {
      expected.insert(r->second);
    }
    std::multiset<uint64_t> actual(values->begin(), values->end());
    EXPECT_EQ(actual, expected) << "key " << key;
  }
}

// Default seed spread, overridable with VDB_TEST_SEED=<n> to reproduce a
// single failing seed. The seed value is part of the test name.
std::vector<uint64_t> FuzzSeeds() {
  if (const char* env = std::getenv("VDB_TEST_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  return {1, 2, 3, 5, 8, 13};
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzzTest,
                         ::testing::ValuesIn(FuzzSeeds()),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed_" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace vdb::storage
