#include "relational/relation.h"

#include <algorithm>
#include <utility>

#include "common/memadvise.h"
#include "core/bitmap_ops.h"
#include "relational/index_cache.h"

namespace crossmine {

std::atomic<uint64_t>& ColumnMaterializationCount() {
  static std::atomic<uint64_t> count{0};
  return count;
}

namespace {

// IndexCache slots: two index kinds per attribute.
enum IndexSlotKind : uint32_t { kAttrIndexSlot = 0, kSortedIndexSlot = 1 };

uint32_t SlotOf(size_t attr, IndexSlotKind kind) {
  return static_cast<uint32_t>(attr * 2) + kind;
}

// Residency hints for a build's single front-to-back column scan: fault the
// borrowed span in ahead of the scan. A no-op for owned columns.
template <typename T>
void AdviseBuildScan(const Column<T>& col) {
  if (!col.borrowed()) return;
  AdviseMemory(col.data(), col.size() * sizeof(T), MemAdvice::kWillNeed);
  AdviseMemory(col.data(), col.size() * sizeof(T), MemAdvice::kSequential);
}

// Records the borrowed source span in the artifact so eviction can
// MADV_DONTNEED the pages the build faulted in.
template <typename T>
void RecordSource(const Column<T>& col, IndexCache::Artifact* artifact) {
  if (!col.borrowed()) return;
  artifact->source = col.data();
  artifact->source_len = col.size() * sizeof(T);
}

IndexCache::Artifact BuildAttrIndex(const Column<int64_t>& col,
                                    TupleId num_tuples, bool with_bitmaps) {
  AdviseBuildScan(col);
  auto index = std::make_shared<AttrIndex>();
  index->words_per_value =
      static_cast<uint32_t>(bitmap_ops::WordsForBits(num_tuples));

  // Sort (value, tuple) pairs: distinct values come out ascending and each
  // posting list ascending (pairs with equal value order by tuple id).
  index->values.reserve(64);
  std::vector<std::pair<int64_t, TupleId>> pairs;
  pairs.reserve(col.size());
  for (TupleId t = 0; t < num_tuples; ++t) {
    if (col[t] == kNullValue) continue;
    pairs.emplace_back(col[t], t);
  }
  std::sort(pairs.begin(), pairs.end());

  index->postings.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (index->values.empty() || pairs[i].first != index->values.back()) {
      index->values.push_back(pairs[i].first);
      index->offsets.push_back(static_cast<uint32_t>(i));
    }
    index->postings.push_back(pairs[i].second);
  }
  index->offsets.push_back(static_cast<uint32_t>(pairs.size()));

  // Promote high-cardinality postings to dense bitmaps: past 2 * words the
  // bitmap is at most half the sorted list's footprint, and counting turns
  // into AND+popcount.
  // Only literal scoring reads bitmaps, so key attributes (with_bitmaps ==
  // false) keep postings only and stay cheap against the memory budget.
  index->word_offs.assign(index->values.size(), AttrIndex::kNoBitmap);
  if (with_bitmaps) {
    uint32_t break_even = std::max<uint32_t>(16, 2 * index->words_per_value);
    for (size_t v = 0; v < index->values.size(); ++v) {
      if (index->posting_count(v) < break_even) continue;
      uint32_t off = static_cast<uint32_t>(index->words.size());
      index->words.resize(off + index->words_per_value, 0);
      uint64_t* w = index->words.data() + off;
      const TupleId* ids = index->posting(v);
      uint32_t n = index->posting_count(v);
      for (uint32_t i = 0; i < n; ++i) bitmap_ops::SetBit(w, ids[i]);
      index->word_offs[v] = off;
    }
  }

  IndexCache::Artifact artifact;
  artifact.bytes = index->bytes();
  artifact.data = std::move(index);
  RecordSource(col, &artifact);
  return artifact;
}

IndexCache::Artifact BuildSortedIndex(const Column<double>& col,
                                      TupleId num_tuples) {
  AdviseBuildScan(col);
  auto order = std::make_shared<std::vector<TupleId>>(num_tuples);
  for (TupleId t = 0; t < num_tuples; ++t) (*order)[t] = t;
  std::stable_sort(order->begin(), order->end(),
                   [&col](TupleId x, TupleId y) { return col[x] < col[y]; });

  IndexCache::Artifact artifact;
  artifact.bytes = order->capacity() * sizeof(TupleId);
  artifact.data = std::move(order);
  RecordSource(col, &artifact);
  return artifact;
}

}  // namespace

Relation::Relation(RelationSchema schema)
    : schema_(std::move(schema)), cache_id_(IndexCache::Global().NewOwnerId()) {
  size_t n = static_cast<size_t>(schema_.num_attrs());
  int_cols_.resize(n);
  double_cols_.resize(n);
  dicts_.resize(n);
  dict_lookup_.resize(n);
}

Relation::Relation(const Relation& other)
    : schema_(other.schema_),
      num_tuples_(other.num_tuples_),
      int_cols_(other.int_cols_),
      double_cols_(other.double_cols_),
      dicts_(other.dicts_),
      dict_lookup_(other.dict_lookup_),
      version_(other.version_),
      cache_id_(IndexCache::Global().NewOwnerId()) {}

Relation& Relation::operator=(const Relation& other) {
  if (this == &other) return *this;
  // The assigned-to keyspace may hold indexes for the old content under
  // version numbers the new content will reuse — drop them all.
  IndexCache::Global().DropOwner(cache_id_);
  schema_ = other.schema_;
  num_tuples_ = other.num_tuples_;
  int_cols_ = other.int_cols_;
  double_cols_ = other.double_cols_;
  dicts_ = other.dicts_;
  dict_lookup_ = other.dict_lookup_;
  version_ = other.version_;
  return *this;
}

Relation::Relation(Relation&& other) noexcept
    : schema_(std::move(other.schema_)),
      num_tuples_(other.num_tuples_),
      int_cols_(std::move(other.int_cols_)),
      double_cols_(std::move(other.double_cols_)),
      dicts_(std::move(other.dicts_)),
      dict_lookup_(std::move(other.dict_lookup_)),
      version_(other.version_),
      cache_id_(other.cache_id_) {
  other.cache_id_ = 0;
}

Relation& Relation::operator=(Relation&& other) noexcept {
  if (this == &other) return *this;
  if (cache_id_ != 0) IndexCache::Global().DropOwner(cache_id_);
  schema_ = std::move(other.schema_);
  num_tuples_ = other.num_tuples_;
  int_cols_ = std::move(other.int_cols_);
  double_cols_ = std::move(other.double_cols_);
  dicts_ = std::move(other.dicts_);
  dict_lookup_ = std::move(other.dict_lookup_);
  version_ = other.version_;
  cache_id_ = other.cache_id_;
  other.cache_id_ = 0;
  return *this;
}

Relation::~Relation() {
  if (cache_id_ != 0) IndexCache::Global().DropOwner(cache_id_);
}

TupleId Relation::AddTuple() {
  for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
    if (schema_.IsIntAttr(a)) {
      int_cols_[static_cast<size_t>(a)].Append(kNullValue);
    } else {
      double_cols_[static_cast<size_t>(a)].Append(0.0);
    }
  }
  ++version_;
  return num_tuples_++;
}

std::shared_ptr<const AttrIndex> Relation::GetAttrIndex(AttrId a) const {
  size_t idx = static_cast<size_t>(a);
  CM_CHECK(schema_.IsIntAttr(a));
  CM_CHECK(cache_id_ != 0);
  const Column<int64_t>& col = int_cols_[idx];
  const bool with_bitmaps = schema_.attr(a).kind == AttrKind::kCategorical;
  const TupleId n = num_tuples_;
  std::shared_ptr<const void> artifact = IndexCache::Global().Get(
      cache_id_, SlotOf(idx, kAttrIndexSlot), version_,
      [&col, n, with_bitmaps] { return BuildAttrIndex(col, n, with_bitmaps); });
  return std::static_pointer_cast<const AttrIndex>(artifact);
}

std::shared_ptr<const std::vector<TupleId>> Relation::GetSortedIndex(
    AttrId a) const {
  size_t idx = static_cast<size_t>(a);
  CM_CHECK(!schema_.IsIntAttr(a));
  CM_CHECK(cache_id_ != 0);
  const Column<double>& col = double_cols_[idx];
  const TupleId n = num_tuples_;
  std::shared_ptr<const void> artifact = IndexCache::Global().Get(
      cache_id_, SlotOf(idx, kSortedIndexSlot), version_,
      [&col, n] { return BuildSortedIndex(col, n); });
  return std::static_pointer_cast<const std::vector<TupleId>>(artifact);
}

std::vector<int64_t> Relation::DistinctCategories(AttrId a) const {
  CM_CHECK(schema_.IsIntAttr(a));
  const Column<int64_t>& col = int_cols_[static_cast<size_t>(a)];
  std::vector<int64_t> values(col.begin(), col.end());
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (!values.empty() && values.front() == kNullValue) {
    values.erase(values.begin());
  }
  return values;
}

void Relation::SetDictionary(AttrId a, std::vector<std::string> labels) {
  size_t idx = static_cast<size_t>(a);
  dicts_[idx] = std::move(labels);
  dict_lookup_[idx].clear();
  for (size_t i = 0; i < dicts_[idx].size(); ++i) {
    dict_lookup_[idx].emplace(dicts_[idx][i], static_cast<int64_t>(i));
  }
}

int64_t Relation::InternCategory(AttrId a, const std::string& label) {
  size_t idx = static_cast<size_t>(a);
  auto it = dict_lookup_[idx].find(label);
  if (it != dict_lookup_[idx].end()) return it->second;
  int64_t code = static_cast<int64_t>(dicts_[idx].size());
  dicts_[idx].push_back(label);
  dict_lookup_[idx].emplace(label, code);
  return code;
}

std::string Relation::CategoryName(AttrId a, int64_t code) const {
  const std::vector<std::string>& dict = dicts_[static_cast<size_t>(a)];
  if (code >= 0 && static_cast<size_t>(code) < dict.size()) {
    return dict[static_cast<size_t>(code)];
  }
  return std::to_string(code);
}

}  // namespace crossmine
