#ifndef CROSSMINE_COMMON_RADIX_SORT_H_
#define CROSSMINE_COMMON_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace crossmine {

/// Inputs shorter than this are insertion-sorted by `RadixSort`.
inline constexpr size_t kRadixSortCutoff = 64;

/// Stably sorts `items` ascending by the 64-bit key `key(item)` in linear
/// time: an LSD radix sort over the key bytes that actually vary. One pass
/// ANDs and ORs every key; a byte that every key shares is skipped, and each
/// other byte costs one histogram pass and one scatter pass into `tmp`,
/// after which the two buffers swap. Keys varying in ~14 bits per 32-bit
/// half sort in about four byte passes. Items with equal keys keep their
/// input order. `tmp` is reusable scratch; its contents on return are
/// unspecified.
template <typename T, typename KeyFn>
void RadixSort(std::vector<T>* items, std::vector<T>* tmp, KeyFn key) {
  const size_t n = items->size();
  if (n < kRadixSortCutoff) {
    T* a = items->data();
    for (size_t i = 1; i < n; ++i) {
      const T item = a[i];
      const uint64_t k = key(item);
      size_t j = i;
      for (; j > 0 && key(a[j - 1]) > k; --j) a[j] = a[j - 1];
      a[j] = item;
    }
    return;
  }
  uint64_t all_and = ~uint64_t{0};
  uint64_t all_or = 0;
  for (const T& item : *items) {
    const uint64_t k = key(item);
    all_and &= k;
    all_or |= k;
  }
  const uint64_t varying = all_and ^ all_or;
  tmp->resize(n);
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xff) == 0) continue;
    size_t start[256] = {};
    for (const T& item : *items) ++start[(key(item) >> shift) & 0xff];
    size_t sum = 0;
    for (size_t& s : start) {
      const size_t count = s;
      s = sum;
      sum += count;
    }
    T* out = tmp->data();
    for (const T& item : *items) {
      out[start[(key(item) >> shift) & 0xff]++] = item;
    }
    items->swap(*tmp);
  }
}

}  // namespace crossmine

#endif  // CROSSMINE_COMMON_RADIX_SORT_H_
