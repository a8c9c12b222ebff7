#ifndef CROSSMINE_RELATIONAL_RELATION_H_
#define CROSSMINE_RELATIONAL_RELATION_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/macros.h"
#include "relational/schema.h"
#include "relational/types.h"

namespace crossmine {

/// Process-wide count of copy-on-write column materializations (a borrowed
/// mapped span copied into owned heap storage on first mutation). The train
/// path is read-only, so a full training run on a `.cmdb` database must not
/// move this counter — `storage.column.materializations` reports the delta
/// and tests/index_cache_test.cc pins it at zero.
std::atomic<uint64_t>& ColumnMaterializationCount();

/// Storage for one column of a Relation: either an owned `std::vector`
/// (databases built in memory, loaded from CSV, or mutated after load) or a
/// borrowed read-only span into a mapped `.cmdb` columnar file
/// (`storage::OpenDatabase`). Reads index one bare pointer either way, so
/// the propagation / literal-search hot paths pay nothing for the
/// indirection. The first mutation of a borrowed column copies it into
/// owned storage (copy-on-write); the mapping itself is never written
/// through, and its lifetime is anchored by `Database::RetainStorage`.
template <typename T>
class Column {
 public:
  Column() = default;

  Column(const Column& other) { *this = other; }
  Column& operator=(const Column& other) {
    if (this == &other) return *this;
    if (other.borrowed()) {
      owned_.clear();
      data_ = other.data_;
    } else {
      owned_ = other.owned_;
      data_ = owned_.data();
    }
    size_ = other.size_;
    return *this;
  }
  // Moving a vector keeps its heap buffer, so a moved owned column's data_
  // pointer stays valid under the new owner.
  Column(Column&&) noexcept = default;
  Column& operator=(Column&&) noexcept = default;

  const T& operator[](size_t i) const { return data_[i]; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T* data() const { return data_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  /// True while the bytes live in a mapped file rather than owned_.
  bool borrowed() const { return data_ != nullptr && data_ != owned_.data(); }

  /// Points the column at `n` externally owned values (storage loader
  /// entry; the caller guarantees the span outlives every read).
  void Borrow(const T* data, size_t n) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = n;
  }

  void Set(size_t i, T v) {
    Materialize();
    owned_[i] = v;
  }
  void Append(T v) {
    Materialize();
    owned_.push_back(v);
    data_ = owned_.data();
    size_ = owned_.size();
  }

 private:
  void Materialize() {
    if (!borrowed()) return;
    ColumnMaterializationCount().fetch_add(1, std::memory_order_relaxed);
    owned_.assign(data_, data_ + size_);
    data_ = owned_.data();
  }

  const T* data_ = nullptr;  ///< owned_.data() or the mapped segment
  size_t size_ = 0;
  std::vector<T> owned_;
};

/// The unified per-attribute index: one CSR inverted index over an integer
/// attribute serving every consumer — join probes (propagation, baseline
/// bindings) through `FindValue` + `posting`, and literal scoring through
/// ascending slot iteration with per-slot counts. Each posting list holds
/// its tuple ids ascending with NULLs (`kNullValue`) excluded, matching SQL
/// join semantics. Only join keys are probed for postings, so the index of
/// a categorical attribute keeps its slots and counts but no postings
/// (`has_postings()` is false).
///
/// Slots ascend by value, in one of two layouts chosen by the column:
///   - direct-addressed (`dense()`): the non-NULL values span a dense range
///     (`DenseValueRange`; dictionary codes and surrogate keys always do).
///     Slot `v` is value `lo + v` for every integer of [lo, hi], so
///     `FindValue(x)` is `x - lo` and no value array is stored. A value of
///     the range the column does not hold has an empty slot.
///   - sorted: any other column lists its distinct values in `values`, one
///     slot each, and `FindValue` binary-searches them.
/// Readers go through the accessors, never the fields, so they serve both.
///
/// Built by `BuildAttrIndex` per relation version on demand and owned by the
/// global `IndexCache` (`Relation::GetAttrIndex`), which may evict and
/// transparently rebuild it under a memory budget.
struct AttrIndex {
  static constexpr size_t npos = ~size_t{0};

  int64_t lo = 0;                 ///< value of slot 0 (direct-addressed)
  std::vector<int64_t> values;    ///< sorted layout: value of each slot
  std::vector<uint32_t> offsets;  ///< CSR: one entry per slot, plus one
  std::vector<TupleId> postings;  ///< concatenated ascending tuple ids

  bool dense() const { return values.empty(); }
  bool has_postings() const { return postings.size() == offsets.back(); }
  /// Number of slots. Direct-addressed slots may be empty
  /// (`posting_count(v) == 0`); sorted ones never are.
  size_t num_values() const { return offsets.size() - 1; }
  int64_t value(size_t v) const {
    return dense() ? static_cast<int64_t>(static_cast<uint64_t>(lo) + v)
                   : values[v];
  }
  uint32_t posting_count(size_t v) const {
    return offsets[v + 1] - offsets[v];
  }
  /// The tuples of slot `v`; needs `has_postings()`.
  const TupleId* posting(size_t v) const {
    return postings.data() + offsets[v];
  }
  /// Returns the slot of `value`, or `npos` if no tuple holds it: the join
  /// probe of every propagation hop. Offsets into the direct-addressed range
  /// are taken in unsigned arithmetic, so any int64 probe is safe.
  size_t FindValue(int64_t value) const {
    if (dense()) {
      const uint64_t v =
          static_cast<uint64_t>(value) - static_cast<uint64_t>(lo);
      if (v >= num_values() || offsets[v] == offsets[v + 1]) return npos;
      return static_cast<size_t>(v);
    }
    auto it = std::lower_bound(values.begin(), values.end(), value);
    if (it == values.end() || *it != value) return npos;
    return static_cast<size_t>(it - values.begin());
  }
  /// Heap footprint, for budget accounting and the `train.index.*` metrics.
  uint64_t bytes() const {
    return values.capacity() * sizeof(int64_t) +
           offsets.capacity() * sizeof(uint32_t) +
           postings.capacity() * sizeof(TupleId);
  }
};

/// True when `count` non-NULL values spanning `span + 1` consecutive
/// integers take the direct-addressed `AttrIndex` layout: one 4-byte slot
/// per integer of the range, at most about twice as many slots as there
/// are values. Slots are numbered in 32 bits (propagation packs them into
/// `IdPair`s), so the span must also stay below 2^32. Dictionary codes and
/// surrogate keys always qualify.
bool DenseValueRange(uint64_t span, size_t count);

/// Builds the index over the `n` values of `col`, with its postings when
/// `with_postings`, else slots and counts only. A column whose non-NULL
/// values satisfy `DenseValueRange(max - min, count)` is counting-sorted
/// into the direct-addressed layout: one pass counts each value, a prefix
/// sum over the range lays out the CSR, and a second pass places the tuples
/// in ascending order. Any other (sparse) column is radix-sorted by value
/// into the sorted layout; the sort is stable and the tuples enter it
/// ascending, so every posting ascends either way. `force_sort` takes the
/// sorted layout regardless; tests use it to check that both layouts index
/// the same postings.
AttrIndex BuildAttrIndex(const int64_t* col, TupleId n, bool with_postings,
                         bool force_sort = false);

/// Columnar relation. Key and categorical attributes are stored as
/// `int64_t` columns (categorical values are dictionary codes), numerical
/// attributes as `double` columns; each column either owns its storage or
/// borrows a read-only span from a mapped `.cmdb` file (see `Column`).
/// Rows are append-only; cell updates are allowed until indexes are first
/// requested.
///
/// Indexes (unified `AttrIndex` per int attribute, sorted permutation per
/// numerical attribute) are built lazily inside the global `IndexCache`
/// under this relation's private owner id, invalidated by any mutation via
/// the version counter, and may be evicted under a memory budget — getters
/// hand back shared handles that outlive eviction. Index getters are safe
/// to call concurrently (single-flight in the cache); mutation still
/// requires external exclusion, as ever.
class Relation {
 public:
  explicit Relation(RelationSchema schema);

  // Copying a relation gives the copy a fresh index-cache keyspace;
  // assignment and destruction drop the stale one.
  Relation(const Relation& other);
  Relation& operator=(const Relation& other);
  Relation(Relation&& other) noexcept;
  Relation& operator=(Relation&& other) noexcept;
  ~Relation();

  const RelationSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name(); }

  TupleId num_tuples() const { return num_tuples_; }

  /// Appends an all-NULL / zero row and returns its id.
  TupleId AddTuple();

  /// Cell accessors. `Int` is valid for pk/fk/categorical attributes,
  /// `Double` for numerical ones; kind mismatches abort.
  int64_t Int(TupleId t, AttrId a) const {
    CM_CHECK(schema_.IsIntAttr(a));
    return int_cols_[static_cast<size_t>(a)][t];
  }
  double Double(TupleId t, AttrId a) const {
    CM_CHECK(!schema_.IsIntAttr(a));
    return double_cols_[static_cast<size_t>(a)][t];
  }
  void SetInt(TupleId t, AttrId a, int64_t v) {
    CM_CHECK(schema_.IsIntAttr(a));
    int_cols_[static_cast<size_t>(a)].Set(t, v);
    ++version_;
  }
  void SetDouble(TupleId t, AttrId a, double v) {
    CM_CHECK(!schema_.IsIntAttr(a));
    double_cols_[static_cast<size_t>(a)].Set(t, v);
    ++version_;
  }

  /// Whole int column (pk/fk/categorical attribute).
  const Column<int64_t>& IntColumn(AttrId a) const {
    CM_CHECK(schema_.IsIntAttr(a));
    return int_cols_[static_cast<size_t>(a)];
  }
  /// Whole double column (numerical attribute).
  const Column<double>& DoubleColumn(AttrId a) const {
    CM_CHECK(!schema_.IsIntAttr(a));
    return double_cols_[static_cast<size_t>(a)];
  }

  /// Storage-loader entry points (`storage::OpenDatabaseColumnar`): binds
  /// this empty relation to `n` tuples whose column bytes live in a
  /// read-only mapped file retained by the owning Database, then borrows
  /// one span per attribute. Every attribute must be attached; later
  /// mutations (SetInt / AddTuple / ...) transparently copy the touched
  /// column into owned storage.
  void BindBorrowedTuples(TupleId n) {
    CM_CHECK_MSG(num_tuples_ == 0, "BindBorrowedTuples on non-empty relation");
    num_tuples_ = n;
    ++version_;
  }
  void BorrowIntColumn(AttrId a, const int64_t* data) {
    CM_CHECK(schema_.IsIntAttr(a));
    int_cols_[static_cast<size_t>(a)].Borrow(data, num_tuples_);
  }
  void BorrowDoubleColumn(AttrId a, const double* data) {
    CM_CHECK(!schema_.IsIntAttr(a));
    double_cols_[static_cast<size_t>(a)].Borrow(data, num_tuples_);
  }
  /// Installs a complete dictionary for a categorical attribute (codes
  /// 0..labels.size()-1, in order). Storage-loader counterpart of
  /// incremental InternCategory.
  void SetDictionary(AttrId a, std::vector<std::string> labels);

  /// The unified inverted index over an integer attribute, built on demand
  /// inside the global IndexCache: with postings for key attributes, slots
  /// and counts only for categorical ones. The handle pins the artifact:
  /// hold it for the duration of a scan and it stays valid even if a memory
  /// budget evicts the cached copy meanwhile.
  std::shared_ptr<const AttrIndex> GetAttrIndex(AttrId a) const;

  /// Tuple ids sorted ascending by the numerical attribute's value (built
  /// on demand in the IndexCache, same pinning rule). Training does not read
  /// it: the numerical-literal sweeps (§5.1) sort only the frontier's runs.
  std::shared_ptr<const std::vector<TupleId>> GetSortedIndex(AttrId a) const;

  /// Distinct values of a categorical attribute actually present (sorted).
  /// NULLs excluded.
  std::vector<int64_t> DistinctCategories(AttrId a) const;

  /// Optional dictionary mapping categorical codes to display strings (used
  /// by CSV I/O and clause pretty-printing). Empty if never set.
  const std::vector<std::string>& Dictionary(AttrId a) const {
    return dicts_[static_cast<size_t>(a)];
  }
  /// Interns `label` into attribute `a`'s dictionary, returning its code.
  int64_t InternCategory(AttrId a, const std::string& label);
  /// Returns the display string for a code, or the code's decimal rendering
  /// if no dictionary entry exists.
  std::string CategoryName(AttrId a, int64_t code) const;

 private:
  RelationSchema schema_;
  TupleId num_tuples_ = 0;
  // One entry per attribute; only the matching-kind column is populated.
  std::vector<Column<int64_t>> int_cols_;
  std::vector<Column<double>> double_cols_;
  std::vector<std::vector<std::string>> dicts_;
  std::vector<std::unordered_map<std::string, int64_t>> dict_lookup_;

  // IndexCache keyspace: every index artifact of this relation lives under
  // cache_id_, keyed by (attr, kind) slot and the mutation version.
  uint64_t version_ = 0;
  uint64_t cache_id_ = 0;  ///< 0 only in a moved-from shell
};

}  // namespace crossmine

#endif  // CROSSMINE_RELATIONAL_RELATION_H_
