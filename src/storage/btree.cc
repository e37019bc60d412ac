#include "storage/btree.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace vdb::storage {

namespace {

// Node layout constants. A node is one page:
//   @0  u16  is_leaf
//   @2  u16  num_keys
//   @8  u64  next_leaf (leaves only)
//   @16 i64  keys[capacity]
//   @16+8*capacity
//       u64  values[capacity]          (leaf)
//       u64  children[capacity + 1]    (internal)
constexpr uint64_t kIsLeafOff = 0;
constexpr uint64_t kNumKeysOff = 2;
constexpr uint64_t kNextLeafOff = 8;
constexpr uint64_t kKeysOff = 16;
constexpr size_t kLeafCapacity = 500;
constexpr size_t kInternalCapacity = 500;
constexpr uint64_t kLeafValuesOff = kKeysOff + 8 * kLeafCapacity;
constexpr uint64_t kChildrenOff = kKeysOff + 8 * kInternalCapacity;

static_assert(kLeafValuesOff + 8 * kLeafCapacity <= kPageSize);
static_assert(kChildrenOff + 8 * (kInternalCapacity + 1) <= kPageSize);

// In-memory image of a node, used only by splits (a split rewrites both
// halves anyway). Store writes the live prefix of each array and leaves
// the bytes past it as they were, so stale keys and values stay on the
// page exactly as the in-place operations below leave them.
struct NodeView {
  bool is_leaf = true;
  std::vector<int64_t> keys;
  std::vector<uint64_t> values;    // leaf: values; internal: children
  PageId next_leaf = kInvalidPageId;

  void Load(const Page& page) {
    is_leaf = page.ReadAt<uint16_t>(kIsLeafOff) != 0;
    const uint16_t n = page.ReadAt<uint16_t>(kNumKeysOff);
    keys.resize(n);
    for (uint16_t i = 0; i < n; ++i) {
      keys[i] = page.ReadAt<int64_t>(kKeysOff + 8ULL * i);
    }
    if (is_leaf) {
      next_leaf = page.ReadAt<uint64_t>(kNextLeafOff);
      values.resize(n);
      for (uint16_t i = 0; i < n; ++i) {
        values[i] = page.ReadAt<uint64_t>(kLeafValuesOff + 8ULL * i);
      }
    } else {
      values.resize(n + 1);
      for (uint16_t i = 0; i <= n; ++i) {
        values[i] = page.ReadAt<uint64_t>(kChildrenOff + 8ULL * i);
      }
    }
  }

  void Store(Page* page) const {
    page->WriteAt<uint16_t>(kIsLeafOff, is_leaf ? 1 : 0);
    page->WriteAt<uint16_t>(kNumKeysOff,
                            static_cast<uint16_t>(keys.size()));
    for (size_t i = 0; i < keys.size(); ++i) {
      page->WriteAt<int64_t>(kKeysOff + 8ULL * i, keys[i]);
    }
    if (is_leaf) {
      page->WriteAt<uint64_t>(kNextLeafOff, next_leaf);
      for (size_t i = 0; i < values.size(); ++i) {
        page->WriteAt<uint64_t>(kLeafValuesOff + 8ULL * i, values[i]);
      }
    } else {
      for (size_t i = 0; i < values.size(); ++i) {
        page->WriteAt<uint64_t>(kChildrenOff + 8ULL * i, values[i]);
      }
    }
  }
};

// In-place accessors on a node page. Descents, non-splitting leaf inserts
// and deletes work on the page bytes directly instead of copying the node
// out and back.
bool IsLeaf(const Page& page) {
  return page.ReadAt<uint16_t>(kIsLeafOff) != 0;
}
uint16_t NumKeys(const Page& page) {
  return page.ReadAt<uint16_t>(kNumKeysOff);
}
int64_t KeyAt(const Page& page, size_t i) {
  return page.ReadAt<int64_t>(kKeysOff + 8ULL * i);
}
uint64_t LeafValueAt(const Page& page, size_t i) {
  return page.ReadAt<uint64_t>(kLeafValuesOff + 8ULL * i);
}
PageId ChildAt(const Page& page, size_t i) {
  return page.ReadAt<uint64_t>(kChildrenOff + 8ULL * i);
}
PageId NextLeaf(const Page& page) {
  return page.ReadAt<uint64_t>(kNextLeafOff);
}

// Binary search over the node's keys: the first index whose key is > `key`
// (kUpper, the insertion descend: equal keys go right) or >= `key`
// (!kUpper, the search descend: equal keys go left). Same partition point
// as std::upper_bound / std::lower_bound.
template <bool kUpper>
size_t Bound(const Page& page, int64_t key) {
  size_t lo = 0;
  size_t hi = NumKeys(page);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const int64_t k = KeyAt(page, mid);
    if (kUpper ? k <= key : k < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BPlusTree::BPlusTree(DiskManager* disk, BufferPool* pool)
    : disk_(disk), pool_(pool) {
  root_ = NewLeaf();
}

PageId BPlusTree::NewLeaf() {
  const PageId id = disk_->AllocatePage();
  auto page = pool_->FetchPage(id, AccessPattern::kRandom);
  VDB_CHECK(page.ok()) << page.status();
  NodeView node;
  node.is_leaf = true;
  node.Store(*page);
  VDB_CHECK_OK(pool_->UnpinPage(id, /*dirty=*/true));
  ++num_pages_;
  return id;
}

PageId BPlusTree::NewInternal() {
  const PageId id = disk_->AllocatePage();
  auto page = pool_->FetchPage(id, AccessPattern::kRandom);
  VDB_CHECK(page.ok()) << page.status();
  NodeView node;
  node.is_leaf = false;
  node.values.push_back(kInvalidPageId);
  node.Store(*page);
  VDB_CHECK_OK(pool_->UnpinPage(id, /*dirty=*/true));
  ++num_pages_;
  return id;
}

Result<PageId> BPlusTree::FindLeaf(int64_t key, std::vector<PageId>* path) {
  PageId current = root_;
  for (;;) {
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(current, AccessPattern::kRandom));
    const bool leaf = IsLeaf(*page);
    // Insertion descend: equal keys go right of the separator.
    const PageId child =
        leaf ? kInvalidPageId : ChildAt(*page, Bound<true>(*page, key));
    VDB_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) return current;
    if (path != nullptr) path->push_back(current);
    current = child;
  }
}

Status BPlusTree::Insert(int64_t key, uint64_t value) {
  std::vector<PageId> path;
  VDB_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(key, &path));
  VDB_RETURN_NOT_OK(InsertIntoLeaf(leaf, key, value, path));
  ++num_entries_;
  return Status::OK();
}

Status BPlusTree::InsertIntoLeaf(PageId leaf_id, int64_t key, uint64_t value,
                                 std::vector<PageId>& path) {
  VDB_ASSIGN_OR_RETURN(Page * page,
                       pool_->FetchPage(leaf_id, AccessPattern::kRandom));
  const uint16_t n = NumKeys(*page);
  if (n < kLeafCapacity) {
    // No split: open a slot at the insertion point of both arrays.
    const size_t pos = Bound<true>(*page, key);
    char* keys = page->data() + kKeysOff;
    char* values = page->data() + kLeafValuesOff;
    std::memmove(keys + 8 * (pos + 1), keys + 8 * pos, 8 * (n - pos));
    std::memmove(values + 8 * (pos + 1), values + 8 * pos, 8 * (n - pos));
    page->WriteAt<int64_t>(kKeysOff + 8 * pos, key);
    page->WriteAt<uint64_t>(kLeafValuesOff + 8 * pos, value);
    page->WriteAt<uint16_t>(kNumKeysOff, static_cast<uint16_t>(n + 1));
    return pool_->UnpinPage(leaf_id, /*dirty=*/true);
  }
  NodeView node;
  node.Load(*page);
  const size_t pos =
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin();
  node.keys.insert(node.keys.begin() + pos, key);
  node.values.insert(node.values.begin() + pos, value);
  // Split: right half moves to a new leaf.
  const size_t mid = node.keys.size() / 2;
  NodeView right;
  right.is_leaf = true;
  right.keys.assign(node.keys.begin() + mid, node.keys.end());
  right.values.assign(node.values.begin() + mid, node.values.end());
  right.next_leaf = node.next_leaf;
  node.keys.resize(mid);
  node.values.resize(mid);

  const PageId right_id = NewLeaf();
  node.next_leaf = right_id;
  node.Store(page);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(leaf_id, /*dirty=*/true));

  VDB_ASSIGN_OR_RETURN(Page * right_page,
                       pool_->FetchPage(right_id, AccessPattern::kRandom));
  right.Store(right_page);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(right_id, /*dirty=*/true));

  return InsertIntoParent(path, right.keys.front(), right_id);
}

Status BPlusTree::InsertIntoParent(std::vector<PageId>& path, int64_t key,
                                   PageId right_child) {
  if (path.empty()) {
    // Root split: make a new root above the two children.
    const PageId new_root = NewInternal();
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(new_root, AccessPattern::kRandom));
    NodeView node;
    node.is_leaf = false;
    node.keys = {key};
    node.values = {root_, right_child};
    node.Store(page);
    VDB_RETURN_NOT_OK(pool_->UnpinPage(new_root, /*dirty=*/true));
    root_ = new_root;
    ++height_;
    return Status::OK();
  }
  const PageId parent_id = path.back();
  path.pop_back();
  VDB_ASSIGN_OR_RETURN(Page * page,
                       pool_->FetchPage(parent_id, AccessPattern::kRandom));
  NodeView node;
  node.Load(*page);
  const size_t pos =
      std::upper_bound(node.keys.begin(), node.keys.end(), key) -
      node.keys.begin();
  node.keys.insert(node.keys.begin() + pos, key);
  node.values.insert(node.values.begin() + pos + 1, right_child);
  if (node.keys.size() <= kInternalCapacity) {
    node.Store(page);
    return pool_->UnpinPage(parent_id, /*dirty=*/true);
  }
  // Split internal node: middle key moves up.
  const size_t mid = node.keys.size() / 2;
  const int64_t up_key = node.keys[mid];
  NodeView right;
  right.is_leaf = false;
  right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
  right.values.assign(node.values.begin() + mid + 1, node.values.end());
  node.keys.resize(mid);
  node.values.resize(mid + 1);
  node.Store(page);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(parent_id, /*dirty=*/true));

  const PageId right_id = NewInternal();
  VDB_ASSIGN_OR_RETURN(Page * right_page,
                       pool_->FetchPage(right_id, AccessPattern::kRandom));
  right.Store(right_page);
  VDB_RETURN_NOT_OK(pool_->UnpinPage(right_id, /*dirty=*/true));

  return InsertIntoParent(path, up_key, right_id);
}

Status BPlusTree::Delete(int64_t key, uint64_t value) {
  // Descend to the leftmost leaf that can contain `key` (search descend),
  // then walk the leaf chain; duplicates may span multiple leaves.
  PageId current = root_;
  for (;;) {
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(current, AccessPattern::kRandom));
    const bool leaf = IsLeaf(*page);
    const PageId child =
        leaf ? kInvalidPageId : ChildAt(*page, Bound<false>(*page, key));
    VDB_RETURN_NOT_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) break;
    current = child;
  }
  while (current != kInvalidPageId) {
    VDB_ASSIGN_OR_RETURN(Page * page,
                         pool_->FetchPage(current, AccessPattern::kRandom));
    const uint16_t n = NumKeys(*page);
    // Equal keys are adjacent, so the first match of (key, value) lies in
    // the run starting at the lower bound.
    size_t i = Bound<false>(*page, key);
    while (i < n && KeyAt(*page, i) == key && LeafValueAt(*page, i) != value) {
      ++i;
    }
    const bool removed = i < n && KeyAt(*page, i) == key;
    if (removed) {
      // Close the slot; the last slot keeps its now-stale bytes.
      char* keys = page->data() + kKeysOff;
      char* values = page->data() + kLeafValuesOff;
      std::memmove(keys + 8 * i, keys + 8 * (i + 1), 8 * (n - i - 1));
      std::memmove(values + 8 * i, values + 8 * (i + 1), 8 * (n - i - 1));
      page->WriteAt<uint16_t>(kNumKeysOff, static_cast<uint16_t>(n - 1));
    }
    const PageId next = NextLeaf(*page);
    const bool past = !removed && n > 0 && KeyAt(*page, 0) > key;
    VDB_RETURN_NOT_OK(pool_->UnpinPage(current, removed));
    if (removed) {
      --num_entries_;
      return Status::OK();
    }
    if (past) break;
    current = next;
  }
  return Status::NotFound("key/value pair not in tree");
}

Result<std::vector<uint64_t>> BPlusTree::Lookup(int64_t key) {
  std::vector<uint64_t> result;
  for (Iterator it = SeekGE(key); it.Valid() && it.key() == key; it.Next()) {
    result.push_back(it.value());
  }
  return result;
}

BPlusTree::Iterator BPlusTree::SeekGE(int64_t key) {
  // Search descend: equal separators go left so we find the leftmost
  // occurrence of a duplicated key.
  PageId current = root_;
  for (;;) {
    auto page_result = pool_->FetchPage(current, AccessPattern::kRandom);
    VDB_CHECK(page_result.ok()) << page_result.status();
    const Page& page = **page_result;
    const bool leaf = IsLeaf(page);
    const size_t idx = Bound<false>(page, key);
    const PageId child = leaf ? kInvalidPageId : ChildAt(page, idx);
    VDB_CHECK_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) return Iterator(this, current, idx);
    current = child;
  }
}

BPlusTree::Iterator BPlusTree::Begin() {
  PageId current = root_;
  for (;;) {
    auto page_result = pool_->FetchPage(current, AccessPattern::kRandom);
    VDB_CHECK(page_result.ok()) << page_result.status();
    const bool leaf = IsLeaf(**page_result);
    const PageId child = leaf ? kInvalidPageId : ChildAt(**page_result, 0);
    VDB_CHECK_OK(pool_->UnpinPage(current, /*dirty=*/false));
    if (leaf) return Iterator(this, current, 0);
    current = child;
  }
}

BPlusTree::Iterator::Iterator(BPlusTree* tree, PageId leaf,
                              size_t start_index)
    : tree_(tree) {
  LoadLeaf(leaf, start_index);
}

void BPlusTree::Iterator::LoadLeaf(PageId leaf, size_t start_index) {
  valid_ = false;
  entries_.clear();
  index_ = 0;
  while (leaf != kInvalidPageId) {
    auto page_result = tree_->pool_->FetchPage(leaf, AccessPattern::kRandom);
    VDB_CHECK(page_result.ok()) << page_result.status();
    const Page& page = **page_result;
    const uint16_t n = NumKeys(page);
    next_leaf_ = NextLeaf(page);
    for (size_t i = start_index; i < n; ++i) {
      entries_.emplace_back(KeyAt(page, i), LeafValueAt(page, i));
    }
    VDB_CHECK_OK(tree_->pool_->UnpinPage(leaf, /*dirty=*/false));
    if (!entries_.empty()) {
      valid_ = true;
      return;
    }
    leaf = next_leaf_;
    start_index = 0;
  }
  next_leaf_ = kInvalidPageId;
}

void BPlusTree::Iterator::Next() {
  if (!valid_) return;
  ++index_;
  if (index_ >= entries_.size()) {
    LoadLeaf(next_leaf_, 0);
  }
}

}  // namespace vdb::storage
