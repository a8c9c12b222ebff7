#include "relational/relation.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/memadvise.h"
#include "common/radix_sort.h"
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

// Slack of `DenseValueRange`: small columns always take the counting sort.
constexpr uint64_t kDenseRangeSlack = 1024;

// Counting sort into the direct-addressed layout over the value range
// [lo, lo + span] of `count` non-NULL values. Offsets into the range are
// taken in unsigned arithmetic, so values near INT64_MIN or INT64_MAX
// cannot overflow.
void BuildByCounting(const int64_t* col, TupleId n, int64_t lo, uint64_t span,
                     size_t count, bool with_postings, AttrIndex* index) {
  const uint64_t base = static_cast<uint64_t>(lo);
  index->lo = lo;
  // Count each value into its slot, turn the counts into slot ends with an
  // inclusive prefix sum, then place the tuples back to front: each slot's
  // cursor walks down to the slot's start, and its posting fills from the
  // top with descending tuples, so it ascends.
  std::vector<uint32_t>& offsets = index->offsets;
  offsets.assign(span + 2, 0);
  for (TupleId t = 0; t < n; ++t) {
    if (col[t] != kNullValue) ++offsets[static_cast<uint64_t>(col[t]) - base];
  }
  uint32_t end = 0;
  for (uint32_t& o : offsets) o = end += o;
  if (!with_postings) {
    // A slot starts where the one before it ends.
    for (uint64_t off = span + 1; off > 0; --off) {
      offsets[off] = offsets[off - 1];
    }
    offsets[0] = 0;
    return;
  }
  index->postings.resize(count);
  for (TupleId t = n; t-- > 0;) {
    if (col[t] == kNullValue) continue;
    index->postings[--offsets[static_cast<uint64_t>(col[t]) - base]] = t;
  }
}

// Radix-sorts (value - lo, tuple) records into the sorted layout. The
// records enter in tuple order and the sort is stable, so each posting
// ascends, for any int64 span.
void BuildBySort(const int64_t* col, TupleId n, int64_t lo, size_t count,
                 bool with_postings, AttrIndex* index) {
  struct Entry {
    uint64_t off;
    TupleId tuple;
  };
  const uint64_t base = static_cast<uint64_t>(lo);
  std::vector<Entry> entries;
  entries.reserve(count);
  for (TupleId t = 0; t < n; ++t) {
    if (col[t] != kNullValue) {
      entries.push_back({static_cast<uint64_t>(col[t]) - base, t});
    }
  }
  std::vector<Entry> tmp;
  RadixSort(&entries, &tmp, [](const Entry& e) { return e.off; });
  size_t distinct = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    distinct += i == 0 || entries[i].off != entries[i - 1].off;
  }
  index->values.reserve(distinct);
  index->offsets.reserve(distinct + 1);
  if (with_postings) index->postings.reserve(count);
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].off != entries[i - 1].off) {
      index->values.push_back(static_cast<int64_t>(base + entries[i].off));
      index->offsets.push_back(static_cast<uint32_t>(i));
    }
    if (with_postings) index->postings.push_back(entries[i].tuple);
  }
  index->offsets.push_back(static_cast<uint32_t>(entries.size()));
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

bool DenseValueRange(uint64_t span, size_t count) {
  return span < (uint64_t{1} << 32) &&
         span <= 2 * uint64_t{count} + kDenseRangeSlack;
}

AttrIndex BuildAttrIndex(const int64_t* col, TupleId n, bool with_postings,
                         bool force_sort) {
  size_t count = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (TupleId t = 0; t < n; ++t) {
    if (col[t] == kNullValue) continue;
    ++count;
    lo = std::min(lo, col[t]);
    hi = std::max(hi, col[t]);
  }
  AttrIndex index;
  if (count == 0) {
    index.offsets.push_back(0);
    return index;
  }
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (!force_sort && DenseValueRange(span, count)) {
    BuildByCounting(col, n, lo, span, count, with_postings, &index);
  } else {
    BuildBySort(col, n, lo, count, with_postings, &index);
  }
  return index;
}

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
  const TupleId n = num_tuples_;
  // Join edges run between keys only; a categorical attribute's index
  // serves the literal search, which reads slots and counts.
  const bool with_postings = schema_.attr(a).kind != AttrKind::kCategorical;
  std::shared_ptr<const void> artifact = IndexCache::Global().Get(
      cache_id_, SlotOf(idx, kAttrIndexSlot), version_,
      [&col, n, with_postings] {
        AdviseBuildScan(col);
        auto index = std::make_shared<AttrIndex>(
            BuildAttrIndex(col.data(), n, with_postings));
        IndexCache::Artifact built;
        built.bytes = index->bytes();
        built.data = std::move(index);
        RecordSource(col, &built);
        return built;
      });
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
