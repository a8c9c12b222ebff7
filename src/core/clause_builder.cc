#include "core/clause_builder.h"

#include <functional>
#include <utility>

#include "common/macros.h"
#include "core/constraint_eval.h"
#include "core/propagation.h"
#include "relational/index_cache.h"

namespace crossmine {

namespace {

inline void Bump(Counter* counter, uint64_t n = 1) {
  if (counter != nullptr) counter->Add(n);
}

}  // namespace

ClauseBuilder::ClauseBuilder(const Database* db,
                             const std::vector<uint8_t>* positive,
                             const CrossMineOptions* opts, ThreadPool* pool,
                             MetricsRegistry* metrics)
    : db_(db),
      positive_(positive),
      opts_(opts),
      pool_(pool),
      metrics_(metrics),
      clause_(db->target()) {
  satisfied_.assign(db->target_relation().num_tuples(), 0);
  if (metrics_ != nullptr) {
    prop_cache_hits_ = metrics_->counter("train.propagation.cache_hits");
    prop_cache_refreshes_ =
        metrics_->counter("train.propagation.cache_refreshes");
    prop_cache_misses_ = metrics_->counter("train.propagation.cache_misses");
    prop_cache_evictions_ =
        metrics_->counter("train.propagation.cache_evictions");
    prop_rejected_ = metrics_->counter("train.propagation.rejected");
    prop_pairs_ = metrics_->counter("train.propagation.pairs");
    search_rounds_ = metrics_->counter("train.search.rounds");
    search_tasks_ = metrics_->counter("train.search.tasks");
    pool_tasks_ = metrics_->counter("train.pool.tasks");
    literals_accepted_ = metrics_->counter("train.literals_accepted");
    peak_id_bytes_ = metrics_->counter("train.propagation.peak_id_bytes");
    prop_time_ = metrics_->timer("train.phase.propagation_seconds");
    lookahead_time_ = metrics_->timer("train.phase.lookahead_seconds");
  }
}

void ClauseBuilder::RecountAlive() {
  pos_ = neg_ = 0;
  for (size_t id = 0; id < alive_.size(); ++id) {
    if (!alive_[id]) continue;
    if ((*positive_)[id]) {
      ++pos_;
    } else {
      ++neg_;
    }
  }
}

void ClauseBuilder::WarmIndexes() const {
  // Pure prefetch: the IndexCache builds are single-flight, so parallel
  // lanes faulting the same index on demand would be correct too — warming
  // just keeps the first search round's lanes from serializing on builds.
  // Under a memory budget, prefetching the whole index set would evict as
  // fast as it fills (and thrash borrowed pages), so skip it there.
  if (IndexCache::Global().budget_bytes() != 0) return;
  for (RelId r = 0; r < db_->num_relations(); ++r) {
    const Relation& rel = db_->relation(r);
    for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
      // Numerical literals sort the frontier's own runs, so training reads
      // an index of integer attributes only.
      if (rel.schema().IsIntAttr(a)) rel.GetAttrIndex(a);
    }
  }
}

void ClauseBuilder::PrepareWorkers() {
  size_t lanes = static_cast<size_t>(num_lanes());
  while (searchers_.size() < lanes) {
    searchers_.emplace_back(db_, positive_);
    searchers_.back().set_metrics(metrics_);
  }
  if (prop_scratch_.size() < lanes) prop_scratch_.resize(lanes);
  for (LiteralSearcher& searcher : searchers_) {
    searcher.SetContext(&alive_, pos_, neg_);
  }
}

Clause ClauseBuilder::Build(std::vector<uint8_t> alive) {
  alive_ = std::move(alive);
  CM_CHECK(alive_.size() == db_->target_relation().num_tuples());
  RecountAlive();

  prop_cache_.clear();
  cached_slot_count_ = 0;
  search_epoch_ = 0;
  // Warm at any lane count (all hits after the first Build): lazy faulting
  // would build a thread-count-dependent subset of the pk/fk indexes, and
  // the train.index.bytes gauge is pinned thread-count invariant.
  WarmIndexes();

  // Node 0 = target relation: idset(t) = {t} for every alive target.
  node_pairs_.clear();
  node_pairs_.push_back(IdentityPairs(alive_));

  while (clause_.length() < opts_->max_clause_length) {
    if (pos_ == 0) break;
    BestChoice best = FindBestLiteral();
    if (!best.valid() || best.cand.gain < opts_->min_foil_gain) break;
    Append(best);
    if (neg_ == 0) break;  // perfect clause: nothing left to gain
  }
  return clause_;
}

void ClauseBuilder::Consider(BestChoice* best, const CandidateLiteral& cand,
                             int32_t source_node,
                             std::vector<int32_t> edge_path) const {
  if (!cand.valid()) return;
  if (cand.gain > (best->valid() ? best->cand.gain : -1.0)) {
    best->cand = cand;
    best->source_node = source_node;
    best->edge_path = std::move(edge_path);
  }
}

uint64_t ClauseBuilder::CurrentIdBytes() {
  uint64_t pairs = 0;
  for (const IdPairs& node : node_pairs_) pairs += node.capacity();
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (const auto& [key, entry] : prop_cache_) {
    pairs += entry.result->pairs.capacity();
  }
  return pairs * sizeof(IdPair);
}

std::shared_ptr<const PropagationResult> ClauseBuilder::GetPropagation(
    int32_t node, int32_t e, int32_t e2, const IdPairs& src,
    const JoinEdge& edge, PropagationScratch* scratch) {
  std::array<int32_t, 3> key{node, e, e2};
  std::shared_ptr<PropagationResult> cached;
  bool current = false;
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = prop_cache_.find(key);
    if (it != prop_cache_.end()) {
      current = it->second.epoch == search_epoch_;
      // Each key is visited by exactly one task per search round, so the
      // refresh below can safely run outside the lock.
      it->second.epoch = search_epoch_;
      cached = it->second.result;
    }
  }
  if (cached != nullptr) {
    if (current) {
      Bump(prop_cache_hits_);
      return cached;
    }
    // The alive mask only shrank since this result was computed, so
    // erasing the dead pairs reproduces a fresh `PropagateIds` exactly —
    // including the limit verdicts, which `RefreshPropagation` re-checks.
    Stopwatch refresh_watch;
    bool refreshed =
        RefreshPropagation(cached.get(), alive_, opts_->propagation_limits);
    if (prop_time_ != nullptr) {
      prop_time_->AddSeconds(refresh_watch.ElapsedSeconds());
    }
    Bump(prop_cache_refreshes_);
    if (refreshed) return cached;
    Bump(prop_cache_evictions_);
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = prop_cache_.find(key);
    if (it != prop_cache_.end()) {
      cached_slot_count_ -= it->second.slots;
      prop_cache_.erase(it);
    }
    return cached;  // ok == false, matching a fresh failed propagation
  }

  Stopwatch prop_watch;
  auto fresh = std::make_shared<PropagationResult>(
      PropagateIds(*db_, edge, src, &alive_, opts_->propagation_limits,
                   scratch));
  if (prop_time_ != nullptr) {
    prop_time_->AddSeconds(prop_watch.ElapsedSeconds());
  }
  Bump(prop_cache_misses_);
  Bump(prop_pairs_, fresh->pairs.size());
  if (!fresh->ok) Bump(prop_rejected_);
  if (fresh->ok && opts_->propagation_cache_slots > 0) {
    // Charged by destination width, not pair count, so what gets cached —
    // and with it every cache counter — is independent of the frontier.
    uint64_t slots = db_->relation(edge.to_rel).num_tuples();
    std::lock_guard<std::mutex> lock(cache_mu_);
    if (cached_slot_count_ + slots <= opts_->propagation_cache_slots) {
      cached_slot_count_ += slots;
      prop_cache_[key] = {fresh, search_epoch_, slots};
    }
  }
  return fresh;
}

ClauseBuilder::BestChoice ClauseBuilder::FindBestLiteral() {
  ++search_epoch_;
  const std::vector<JoinEdge>& edges = db_->edges();

  // Enumerate candidate tasks in the exact order the sequential loops of
  // Algorithm 3 visit them; the reduction below walks the same order, so
  // ties break identically at every thread count.
  std::vector<SearchTask> tasks;
  for (int32_t n = 0; n < static_cast<int32_t>(clause_.nodes().size()); ++n) {
    const ClauseNode& node = clause_.nodes()[static_cast<size_t>(n)];
    tasks.push_back({n, -1, -1, -1});
    for (int32_t e : db_->OutEdges(node.relation)) {
      const JoinEdge& edge = edges[static_cast<size_t>(e)];
      int32_t parent = static_cast<int32_t>(tasks.size());
      tasks.push_back({n, e, -1, -1});
      if (!opts_->look_one_ahead) continue;
      // Look-one-ahead: a second hop through a foreign key of the reached
      // relation (k' ≠ k, Algorithm 3).
      for (int32_t e2 : db_->OutEdges(edge.to_rel)) {
        const JoinEdge& edge2 = edges[static_cast<size_t>(e2)];
        if (edge2.kind != JoinKind::kFkToPk) continue;
        if (edge2.from_attr == edge.to_attr) continue;
        tasks.push_back({n, e, e2, parent});
      }
    }
  }

  Bump(search_rounds_);
  Bump(search_tasks_, tasks.size());

  std::vector<CandidateLiteral> scored(tasks.size());
  std::vector<std::shared_ptr<const PropagationResult>> hop1(tasks.size());
  PrepareWorkers();

  auto run_task = [&](size_t i, int worker) {
    const SearchTask& t = tasks[i];
    LiteralSearcher& searcher = searchers_[static_cast<size_t>(worker)];
    if (t.edge < 0) {
      // Hop 0: constraint on the active node itself (empty prop-path).
      const ClauseNode& node = clause_.nodes()[static_cast<size_t>(t.node)];
      scored[i] = searcher.FindBest(
          node.relation, node_pairs_[static_cast<size_t>(t.node)], *opts_);
    } else if (t.edge2 < 0) {
      // Hop 1: one propagation along a join edge leaving the node.
      const JoinEdge& edge = edges[static_cast<size_t>(t.edge)];
      std::shared_ptr<const PropagationResult> p = GetPropagation(
          t.node, t.edge, -1, node_pairs_[static_cast<size_t>(t.node)], edge,
          &prop_scratch_[static_cast<size_t>(worker)]);
      hop1[i] = p;
      if (p->ok) scored[i] = searcher.FindBest(edge.to_rel, p->pairs, *opts_);
    } else {
      // Hop 2: look-ahead through the parent task's propagation.
      const std::shared_ptr<const PropagationResult>& parent =
          hop1[static_cast<size_t>(t.parent)];
      if (parent == nullptr || !parent->ok) return;
      const JoinEdge& edge2 = edges[static_cast<size_t>(t.edge2)];
      std::shared_ptr<const PropagationResult> p =
          GetPropagation(t.node, t.edge, t.edge2, parent->pairs, edge2,
                         &prop_scratch_[static_cast<size_t>(worker)]);
      if (p->ok) {
        scored[i] = searcher.FindBest(edge2.to_rel, p->pairs, *opts_);
      }
    }
  };

  // Two waves: hop-0/hop-1 tasks first, then the hop-2 tasks that consume
  // the first wave's propagations. Each wave's tasks are independent.
  auto run_wave = [&](bool lookahead) {
    if (num_lanes() == 1) {
      for (size_t i = 0; i < tasks.size(); ++i) {
        if ((tasks[i].edge2 >= 0) == lookahead) run_task(i, 0);
      }
      return;
    }
    std::vector<std::function<void(int)>> fns;
    for (size_t i = 0; i < tasks.size(); ++i) {
      if ((tasks[i].edge2 >= 0) == lookahead) {
        fns.push_back([&run_task, i](int worker) { run_task(i, worker); });
      }
    }
    Bump(pool_tasks_, fns.size());
    pool_->RunTasks(fns);
  };
  run_wave(/*lookahead=*/false);
  {
    // Look-ahead cost, as wall time of the hop-2 wave. Its propagation and
    // scan time is *also* accumulated into the propagation / literal-search
    // phase timers; this key answers "what does §5.2 look-one-ahead cost"
    // on its own.
    Stopwatch lookahead_watch;
    run_wave(/*lookahead=*/true);
    if (lookahead_time_ != nullptr) {
      lookahead_time_->AddSeconds(lookahead_watch.ElapsedSeconds());
    }
  }

  // Deterministic reduction in task-enumeration (= sequential-loop) order.
  BestChoice best;
  for (size_t i = 0; i < tasks.size(); ++i) {
    const SearchTask& t = tasks[i];
    std::vector<int32_t> path;
    if (t.edge >= 0) path.push_back(t.edge);
    if (t.edge2 >= 0) path.push_back(t.edge2);
    Consider(&best, scored[i], t.node, std::move(path));
  }
  // All tasks have joined: sample the pair footprint at this quiescent
  // point. The state here is identical at any thread count, so the peak is
  // thread-count invariant like every other counter.
  if (peak_id_bytes_ != nullptr) peak_id_bytes_->MaxWith(CurrentIdBytes());
  return best;
}

void ClauseBuilder::Append(const BestChoice& choice) {
  Bump(literals_accepted_);
  ComplexLiteral lit;
  lit.source_node = choice.source_node;
  lit.edge_path = choice.edge_path;
  lit.constraint = choice.cand.constraint;
  lit.gain = choice.cand.gain;
  const ComplexLiteral& added = clause_.Append(*db_, std::move(lit));

  // Materialize pairs for the nodes the prop-path created, reusing the
  // propagations the search just scored (cache hits at the current epoch).
  CM_CHECK(added.edge_path.size() <= 2);
  const IdPairs* cur = &node_pairs_[static_cast<size_t>(added.source_node)];
  for (size_t h = 0; h < added.edge_path.size(); ++h) {
    int32_t edge_id = added.edge_path[h];
    const JoinEdge& edge = db_->edges()[static_cast<size_t>(edge_id)];
    std::shared_ptr<const PropagationResult> hop = GetPropagation(
        added.source_node, added.edge_path[0], h == 0 ? -1 : edge_id, *cur,
        edge, prop_scratch_.empty() ? nullptr : &prop_scratch_[0]);
    // The same propagation succeeded during the search.
    CM_CHECK_MSG(hop->ok, "propagation failed while appending literal");
    node_pairs_.push_back(hop->pairs);  // copy: the cache keeps its own
    cur = &node_pairs_.back();
  }

  // Apply the constraint at the node it targets; shrink the alive set and
  // refresh every node's pairs ("update IDs on every active relation").
  int32_t cnode = added.ConstraintNode();
  const Relation& rel =
      db_->relation(clause_.nodes()[static_cast<size_t>(cnode)].relation);
  ApplyConstraint(rel, added.constraint, alive_,
                  &node_pairs_[static_cast<size_t>(cnode)], &satisfied_);
  for (size_t id = 0; id < alive_.size(); ++id) {
    alive_[id] = alive_[id] && satisfied_[id];
  }
  RecountAlive();
  for (IdPairs& node : node_pairs_) DropDeadIds(&node, alive_);
  if (peak_id_bytes_ != nullptr) peak_id_bytes_->MaxWith(CurrentIdBytes());
}

}  // namespace crossmine
