// Microbenchmark for the ID-set storage layer: union / filter / scan at
// varying fan-out, plus a fig11-style end-to-end training run (R20.T10000.F2,
// sampling on) that reports the propagation + literal-search phase time and
// the number of heap allocations made while training — the two numbers
// BENCH_idset.json tracks across the IdSetStore refactor.
//
// Always emits bench_json.h lines (this bench has no google-benchmark mode).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "bench_json.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/classifier.h"
#include "core/idset.h"
#include "core/propagation.h"
#include "datagen/synthetic.h"

// ------------------------------------------------------------------------
// Heap-allocation counter: every operator new in this binary ticks the
// counter, so the delta across a Train call counts the training
// allocations (dominated by the idset path this bench exists to watch).
static std::atomic<uint64_t> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace crossmine {
namespace {

void DoNotOptimize(uint64_t v) {
  asm volatile("" : : "r"(v) : "memory");
}

/// `num_sets` sets over a universe of `universe` target ids, each with
/// `fanout` random sorted-unique members.
std::vector<IdSet> MakeSets(uint64_t seed, size_t num_sets, TupleId universe,
                            uint32_t fanout) {
  Rng rng(seed);
  std::vector<IdSet> sets(num_sets);
  for (IdSet& s : sets) {
    for (uint32_t i = 0; i < fanout; ++i) {
      s.push_back(static_cast<TupleId>(rng.Uniform(universe)));
    }
    NormalizeIdSet(&s);
  }
  return sets;
}

/// Union of `k` sets at a time (the per-join-value merge of PropagateIds).
void BenchUnion(const char* name, uint32_t fanout) {
  constexpr size_t kSets = 4096;
  constexpr TupleId kUniverse = 8192;
  std::vector<IdSet> sets = MakeSets(11, kSets, kUniverse, fanout);
  double ms = bench::BestWallMs([&] {
    uint64_t total = 0;
    for (size_t base = 0; base + 8 <= kSets; base += 8) {
      IdSet merged;
      for (size_t j = 0; j < 8; ++j) {
        UnionInPlace(&merged, sets[base + j]);
      }
      total += merged.size();
    }
    DoNotOptimize(total);
  });
  bench::EmitJsonLine(name, fanout, ms, 1);
}

/// Alive-filter over every set (what RefreshPropagation did before the
/// store's in-place compaction replaced FilterIdSets).
void BenchFilter(const char* name, uint32_t fanout) {
  constexpr size_t kSets = 4096;
  constexpr TupleId kUniverse = 8192;
  std::vector<IdSet> sets = MakeSets(13, kSets, kUniverse, fanout);
  std::vector<uint8_t> alive(kUniverse);
  Rng rng(17);
  for (auto& a : alive) a = rng.Bernoulli(0.5);
  double ms = bench::BestWallMs([&] {
    std::vector<IdSet> copy = sets;
    FilterIdSets(&copy, alive);
    DoNotOptimize(TotalIds(copy));
  });
  bench::EmitJsonLine(name, fanout, ms, 1);
}

/// Full scan of every id in every set (the literal-search inner loop).
void BenchScan(const char* name, uint32_t fanout) {
  constexpr size_t kSets = 4096;
  constexpr TupleId kUniverse = 8192;
  std::vector<IdSet> sets = MakeSets(19, kSets, kUniverse, fanout);
  double ms = bench::BestWallMs([&] {
    uint64_t sum = 0;
    for (const IdSet& s : sets) {
      for (TupleId id : s) sum += id;
    }
    DoNotOptimize(sum);
  });
  bench::EmitJsonLine(name, fanout, ms, 1);
}

// ------------------------------------------------------------------------
// Store-variant micros: the same three shapes on the arena-backed
// IdSetStore. The vector micros above stay as the in-binary "before"
// reference for the vector-of-vectors layout they replaced.

/// Per-join-value merge via AppendSet gather + AssignUnion, 8 sets at a
/// time, into a reused output store (the PropagateIds inner loop).
void BenchStoreUnion(const char* name, uint32_t fanout) {
  constexpr size_t kSets = 4096;
  constexpr TupleId kUniverse = 8192;
  IdSetStore sets = StoreFromIdSets(MakeSets(11, kSets, kUniverse, fanout),
                                    kUniverse);
  IdSetStore out;
  std::vector<TupleId> buf;
  double ms = bench::BestWallMs([&] {
    out.Reset(kSets / 8, kUniverse);
    uint64_t total = 0;
    for (uint32_t base = 0; base + 8 <= kSets; base += 8) {
      buf.clear();
      for (uint32_t j = 0; j < 8; ++j) {
        sets.AppendSet(base + j, nullptr, &buf);
      }
      out.AssignUnion(base / 8, &buf);
      total += out.Cardinality(base / 8);
    }
    DoNotOptimize(total);
  });
  bench::EmitJsonLine(name, fanout, ms, 1);
}

/// Per-join-value merge via the word-parallel AssignUnionOfSets kernel —
/// the PropagateIds inner loop on bitmap-heavy inputs: span dedup,
/// then OR of bitmap spans / scatter of sparse spans, no gather and no
/// sort. Compare against store_union_f (gather + AssignUnion) and
/// idset_union_f (the old vector-of-vectors merge).
void BenchStoreUnionKernel(const char* name, uint32_t fanout) {
  constexpr size_t kSets = 4096;
  constexpr TupleId kUniverse = 8192;
  IdSetStore sets = StoreFromIdSets(MakeSets(11, kSets, kUniverse, fanout),
                                    kUniverse);
  IdSetStore out;
  UnionScratch scratch;
  std::vector<TupleId> group(8);
  double ms = bench::BestWallMs([&] {
    out.Reset(kSets / 8, kUniverse);
    uint64_t total = 0;
    for (uint32_t base = 0; base + 8 <= kSets; base += 8) {
      for (uint32_t j = 0; j < 8; ++j) group[j] = base + j;
      total += out.AssignUnionOfSets(base / 8, sets, group.data(), 8, nullptr,
                                     nullptr, &scratch);
    }
    DoNotOptimize(total);
  });
  bench::EmitJsonLine(name, fanout, ms, 1);
}

/// Alive-filter via in-place FilterAndCompact on a copied store (the
/// RefreshPropagation pass).
void BenchStoreFilter(const char* name, uint32_t fanout) {
  constexpr size_t kSets = 4096;
  constexpr TupleId kUniverse = 8192;
  IdSetStore sets = StoreFromIdSets(MakeSets(13, kSets, kUniverse, fanout),
                                    kUniverse);
  std::vector<uint8_t> alive(kUniverse);
  Rng rng(17);
  for (auto& a : alive) a = rng.Bernoulli(0.5);
  double ms = bench::BestWallMs([&] {
    IdSetStore copy = sets;
    copy.FilterAndCompact(alive);
    DoNotOptimize(copy.total_ids());
  });
  bench::EmitJsonLine(name, fanout, ms, 1);
}

/// Full scan of every id in every set via ForEach (the literal-search
/// inner loop).
void BenchStoreScan(const char* name, uint32_t fanout) {
  constexpr size_t kSets = 4096;
  constexpr TupleId kUniverse = 8192;
  IdSetStore sets = StoreFromIdSets(MakeSets(19, kSets, kUniverse, fanout),
                                    kUniverse);
  double ms = bench::BestWallMs([&] {
    uint64_t sum = 0;
    for (uint32_t s = 0; s < sets.num_sets(); ++s) {
      sets.ForEach(s, [&](TupleId id) { sum += id; });
    }
    DoNotOptimize(sum);
  });
  bench::EmitJsonLine(name, fanout, ms, 1);
}

/// Fig11-style workload: one CrossMine Train on synthetic R20.T<n>.F2 with
/// sampling, categorical literals only (§7.1 configuration). Emits the
/// propagation + literal-search + look-ahead phase seconds (as wall_ms) and
/// the heap-allocation count of the Train call (as `n` of an alloc line).
void BenchTrainPhase(int64_t tuples) {
  datagen::SyntheticConfig cfg;
  cfg.num_relations = 20;
  cfg.expected_tuples = tuples;
  cfg.expected_fkeys = 2;
  cfg.seed = 29;
  StatusOr<Database> db = datagen::GenerateSyntheticDatabase(cfg);
  CM_CHECK_MSG(db.ok(), db.status().ToString().c_str());
  std::vector<TupleId> all(db->target_relation().num_tuples());
  std::iota(all.begin(), all.end(), 0);

  CrossMineOptions opts;
  opts.use_numerical_literals = false;
  opts.use_aggregation_literals = false;
  opts.use_sampling = true;
  opts.num_threads = 1;

  CrossMineClassifier model(opts);
  MetricsRegistry reg;
  model.set_metrics(&reg);
  uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  CM_CHECK(model.Train(*db, all).ok());
  uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;

  MetricsSnapshot snap = reg.Snapshot();
  // Propagation + literal search only: the lookahead timer is wall time of
  // the hop-2 wave, whose propagation/scan cost is *also* inside the other
  // two, so adding it would double-count.
  double phase_s = snap["train.phase.propagation_seconds"] +
                   snap["train.phase.literal_search_seconds"];
  bench::EmitJsonLine("train_prop_search_phase", tuples, phase_s * 1000.0, 1);
  bench::EmitJsonLine("train_propagation_phase", tuples,
                      snap["train.phase.propagation_seconds"] * 1000.0, 1);
  bench::EmitJsonLine("train_literal_search_phase", tuples,
                      snap["train.phase.literal_search_seconds"] * 1000.0, 1);
  bench::EmitJsonLine("train_wall", tuples, snap["train.wall_seconds"] * 1000.0,
                      1);
  std::printf("{\"bench\":\"train_heap_allocs\",\"n\":%lld,\"allocs\":%llu}\n",
              static_cast<long long>(tuples),
              static_cast<unsigned long long>(allocs));
  std::fflush(stdout);
}

int RunAll(bool full) {
  for (uint32_t fanout : {2u, 8u, 32u, 128u}) {
    BenchUnion("idset_union_f", fanout);
    BenchFilter("idset_filter_f", fanout);
    BenchScan("idset_scan_f", fanout);
    BenchStoreUnion("store_union_f", fanout);
    BenchStoreUnionKernel("store_union_kernel_f", fanout);
    BenchStoreFilter("store_filter_f", fanout);
    BenchStoreScan("store_scan_f", fanout);
  }
  BenchTrainPhase(2000);
  if (full) BenchTrainPhase(10000);
  return 0;
}

}  // namespace
}  // namespace crossmine

int main(int argc, char** argv) {
  bool full = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--full") full = true;
  }
  return crossmine::RunAll(full);
}
