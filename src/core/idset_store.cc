#include "core/idset_store.h"

#include <algorithm>

namespace crossmine {

void IdSetStore::Reset(uint32_t num_sets, TupleId universe) {
  CM_CHECK(universe < (TupleId{1} << 31));  // Entry::count is 31 bits wide
  entries_.assign(num_sets, Entry{});
  pool_.clear();
  words_.clear();
  nonempty_words_.assign(bitmap_ops::WordsForBits(num_sets), 0);
  universe_ = universe;
  words_per_set_ = (universe + 63) / 64;
  bitmap_threshold_ = std::max(16u, 2 * words_per_set_);
}

void IdSetStore::InitIdentity(const std::vector<uint8_t>& alive) {
  Reset(static_cast<uint32_t>(alive.size()),
        static_cast<TupleId>(alive.size()));
  for (uint32_t t = 0; t < alive.size(); ++t) {
    if (alive[t]) AssignSingle(t, static_cast<TupleId>(t));
  }
}

void IdSetStore::Free() {
  std::vector<Entry>().swap(entries_);
  std::vector<TupleId>().swap(pool_);
  std::vector<uint64_t>().swap(words_);
  std::vector<uint64_t>().swap(alive_words_);
  std::vector<uint64_t>().swap(nonempty_words_);
  std::vector<uint32_t>().swap(order_);
}

uint64_t IdSetStore::total_ids() const {
  uint64_t total = 0;
  for (const Entry& e : entries_) total += e.count;
  return total;
}

uint32_t IdSetStore::AppendBitmap(const TupleId* ids, uint32_t n) {
  uint32_t off = static_cast<uint32_t>(words_.size());
  words_.resize(words_.size() + words_per_set_, 0);
  uint64_t* w = words_.data() + off;
  for (uint32_t i = 0; i < n; ++i) {
    w[ids[i] >> 6] |= uint64_t{1} << (ids[i] & 63);
  }
  return off;
}

void IdSetStore::AssignSorted(uint32_t s, const TupleId* ids, uint32_t n) {
  NoteCount(s, n);
  Entry& e = entries_[s];
  if (n == 0) {
    e = Entry{};
    return;
  }
  e.count = n;
  if (n >= bitmap_threshold_) {
    e.kind = Entry::kBitmap;
    e.offset = AppendBitmap(ids, n);
    return;
  }
  e.kind = Entry::kSparse;
  e.offset = static_cast<uint32_t>(pool_.size());
  pool_.insert(pool_.end(), ids, ids + n);
}

void IdSetStore::AssignSingle(uint32_t s, TupleId id) {
  NoteCount(s, 1);
  Entry& e = entries_[s];
  e.kind = Entry::kSparse;
  e.offset = static_cast<uint32_t>(pool_.size());
  e.count = 1;
  pool_.push_back(id);
}

void IdSetStore::AssignUnion(uint32_t s, std::vector<TupleId>* buf) {
  // Buffers that will end up as bitmaps anyway need neither sort nor dedup:
  // scatter the raw ids and let the popcount establish the cardinality.
  // (The final count can only shrink below the threshold through
  // duplicates, and staying a bitmap below it is already legal — see
  // FilterAndCompact.)
  if (buf->size() >= bitmap_threshold_) {
    Entry& e = entries_[s];
    e.kind = Entry::kBitmap;
    e.offset = static_cast<uint32_t>(words_.size());
    words_.resize(words_.size() + words_per_set_, 0);
    uint64_t* w = words_.data() + e.offset;
    for (TupleId id : *buf) bitmap_ops::SetBit(w, id);
    e.count =
        static_cast<uint32_t>(bitmap_ops::Popcount(w, words_per_set_));
    NoteCount(s, e.count);
    return;
  }
  // Single-contributor buckets arrive already sorted-unique; detect that
  // with one cheap pass instead of always sorting.
  bool sorted_unique = true;
  for (size_t i = 1; i < buf->size(); ++i) {
    if ((*buf)[i - 1] >= (*buf)[i]) {
      sorted_unique = false;
      break;
    }
  }
  if (!sorted_unique) {
    std::sort(buf->begin(), buf->end());
    buf->erase(std::unique(buf->begin(), buf->end()), buf->end());
  }
  AssignSorted(s, buf->data(), static_cast<uint32_t>(buf->size()));
}

uint32_t IdSetStore::AssignUnionOfSets(uint32_t s, const IdSetStore& src,
                                       const TupleId* src_sets, uint32_t n,
                                       const std::vector<uint8_t>* alive,
                                       const uint64_t* alive_words,
                                       UnionScratch* scratch) {
  CM_CHECK(this != &src && src.universe_ == universe_);
  // O(1)-per-set prepass to pick the merge: summed cardinality (aliases
  // counted per set — an upper bound is all the selection needs) and
  // whether any contributor is bitmap-kind.
  uint64_t total = 0;
  bool any_bitmap = false;
  for (uint32_t i = 0; i < n; ++i) {
    const Entry& e = src.entries_[src_sets[i]];
    total += e.count;
    any_bitmap = any_bitmap || (e.count != 0 && e.kind == Entry::kBitmap);
  }
  if (total == 0) {
    Clear(s);
    return 0;
  }

  if (any_bitmap || total >= bitmap_threshold_) {
    // Word-parallel path. Dedup the contributing spans first — aliased
    // sets share a span key, so each merged span ORs in once no matter how
    // many source tuples alias it; the span sort is cheap next to the word
    // work it saves at these cardinalities.
    scratch->spans.clear();
    for (uint32_t i = 0; i < n; ++i) {
      if (src.entries_[src_sets[i]].count == 0) continue;
      scratch->spans.emplace_back(src.span_key(src_sets[i]),
                                  src.entries_[src_sets[i]].count);
    }
    std::sort(scratch->spans.begin(), scratch->spans.end());
    scratch->spans.erase(
        std::unique(scratch->spans.begin(), scratch->spans.end()),
        scratch->spans.end());
    uint32_t off = static_cast<uint32_t>(words_.size());
    words_.resize(words_.size() + words_per_set_, 0);
    uint64_t* w = words_.data() + off;
    for (const auto& [key, count] : scratch->spans) {
      uint32_t span_off = static_cast<uint32_t>(key & 0xffffffffu);
      if ((key >> 32) == Entry::kBitmap) {
        bitmap_ops::Or(w, src.words_.data() + span_off, words_per_set_);
      } else {
        const TupleId* ids = src.pool_.data() + span_off;
        for (uint32_t i = 0; i < count; ++i) bitmap_ops::SetBit(w, ids[i]);
      }
    }
    if (alive_words != nullptr) {
      bitmap_ops::And(w, alive_words, words_per_set_);
    }
    uint32_t count =
        static_cast<uint32_t>(bitmap_ops::Popcount(w, words_per_set_));
    if (count == 0) {
      words_.resize(off);
      Clear(s);
      return 0;
    }
    if (count < bitmap_threshold_) {
      // The alive filter shrank the union below break-even (the selection
      // above only saw pre-filter cardinalities): decode the accumulator
      // into a compact sparse span so downstream passes don't drag a
      // near-empty full-width bitmap around.
      uint32_t pool_off = static_cast<uint32_t>(pool_.size());
      bitmap_ops::ForEachBit(w, words_per_set_,
                             [this](TupleId id) { pool_.push_back(id); });
      words_.resize(off);
      entries_[s] = Entry{pool_off, count, Entry::kSparse};
      NoteCount(s, count);
      return count;
    }
    entries_[s] = Entry{off, count, Entry::kBitmap};
    NoteCount(s, count);
    return count;
  }

  // Sparse path (every contributor is sparse-kind): the classic gather —
  // every contributor's alive ids into one buffer (duplicates from aliased
  // sets and all), normalized by AssignUnion. A lone contributor arrives
  // sorted and skips the sort.
  scratch->merge.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const Entry& e = src.entries_[src_sets[i]];
    if (e.count == 0) continue;
    const TupleId* ids = src.pool_.data() + e.offset;
    for (uint32_t j = 0; j < e.count; ++j) {
      if (alive == nullptr || (*alive)[ids[j]]) {
        scratch->merge.push_back(ids[j]);
      }
    }
  }
  AssignUnion(s, &scratch->merge);
  return Cardinality(s);
}

void IdSetStore::AppendSet(uint32_t s, const std::vector<uint8_t>* alive,
                           std::vector<TupleId>* out) const {
  if (alive == nullptr) {
    ForEach(s, [out](TupleId id) { out->push_back(id); });
    return;
  }
  ForEach(s, [alive, out](TupleId id) {
    if ((*alive)[id]) out->push_back(id);
  });
}

std::vector<TupleId> IdSetStore::ToVector(uint32_t s) const {
  std::vector<TupleId> out;
  out.reserve(Cardinality(s));
  AppendSet(s, nullptr, &out);
  return out;
}

void IdSetStore::FilterAndCompact(const std::vector<uint8_t>& alive) {
  CM_CHECK(alive.size() == universe_);

  // Bitmap entries filter word-parallel against the packed mask; pack it
  // once per pass (skipped entirely for sparse-only stores). The member
  // scratch keeps the refresh path allocation-free after warm-up.
  const uint64_t* alive_words = nullptr;
  if (!words_.empty()) {
    alive_words_.resize(words_per_set_);
    bitmap_ops::PackBytes(alive.data(), alive.size(), alive_words_.data());
    alive_words = alive_words_.data();
  }

  // Non-empty descriptors in ascending arena order, sparse spans first.
  // Distinct live spans never overlap (bump allocation, and compaction
  // itself preserves ascending disjoint layout), so each can be filtered
  // into its packed position in place: the write cursor never passes the
  // span being read. Aliases share an offset and are remapped together.
  // The non-empty bitmap finds the descriptors in O(non-empty) instead of
  // a full scan of entries_.
  order_.clear();
  ForEachNonEmptySet([this](TupleId s) { order_.push_back(s); });
  std::vector<uint32_t>& order = order_;
  auto arena_before = [this](uint32_t a, uint32_t b) {
    const Entry& ea = entries_[a];
    const Entry& eb = entries_[b];
    if (ea.kind != eb.kind) return ea.kind < eb.kind;
    if (ea.offset != eb.offset) return ea.offset < eb.offset;
    return a < b;
  };
  // Propagation along key joins usually assigns spans in ascending set
  // order already (destination tuples ascend with their join values), and
  // compaction preserves relative span order — so check before sorting:
  // the linear is_sorted pass routinely replaces the n-log-n sort.
  if (!std::is_sorted(order.begin(), order.end(), arena_before)) {
    std::sort(order.begin(), order.end(), arena_before);
  }

  uint32_t pool_write = 0;
  uint32_t word_write = 0;
  constexpr uint32_t kNone = UINT32_MAX;
  uint32_t last_sparse_off = kNone, last_word_off = kNone;
  Entry last_sparse{}, last_bitmap{};
  for (uint32_t s : order) {
    Entry& e = entries_[s];
    if (e.kind == Entry::kSparse) {
      if (e.offset == last_sparse_off) {
        e = last_sparse;  // alias of the span just filtered
        NoteCount(s, e.count);
        continue;
      }
      last_sparse_off = e.offset;
      uint32_t new_off = pool_write;
      for (uint32_t i = e.offset; i < e.offset + e.count; ++i) {
        TupleId id = pool_[i];
        if (alive[id]) pool_[pool_write++] = id;
      }
      e.count = pool_write - new_off;
      e.offset = e.count == 0 ? 0 : new_off;
      last_sparse = e;
      NoteCount(s, e.count);
    } else {
      if (e.offset == last_word_off) {
        e = last_bitmap;
        NoteCount(s, e.count);
        continue;
      }
      last_word_off = e.offset;
      uint32_t cnt = 0;
      for (uint32_t wi = 0; wi < words_per_set_; ++wi) {
        uint64_t word = words_[e.offset + wi] & alive_words[wi];
        words_[word_write + wi] = word;
        cnt += static_cast<uint32_t>(__builtin_popcountll(word));
      }
      if (cnt == 0) {
        e = Entry{};
      } else {
        // Stay a bitmap even below the promotion threshold: demoting into
        // the pool could grow it, and the representation is unobservable.
        e.offset = word_write;
        e.count = cnt;
        word_write += words_per_set_;
      }
      last_bitmap = e;
      NoteCount(s, e.count);
    }
  }
  pool_.resize(pool_write);
  words_.resize(word_write);
}

}  // namespace crossmine
