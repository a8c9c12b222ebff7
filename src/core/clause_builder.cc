#include "core/clause_builder.h"

#include <functional>
#include <utility>

#include "common/macros.h"
#include "core/constraint_eval.h"
#include "core/propagation.h"

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

  // Node 0 = target relation: idset(t) = {t} for every alive target.
  node_pairs_.clear();
  node_pairs_.push_back(IdentityPairs(alive_));

  while (clause_.length() < opts_->max_clause_length) {
    if (pos_ == 0) break;
    BestChoice best = FindBestLiteral();
    if (!best.valid() || best.cand.gain < opts_->min_foil_gain) break;
    Append(std::move(best));
    if (neg_ == 0) break;  // perfect clause: nothing left to gain
  }
  return clause_;
}

uint64_t ClauseBuilder::CurrentIdBytes() const {
  uint64_t pairs = 0;
  for (const IdPairs& node : node_pairs_) pairs += node.capacity();
  for (const auto& [key, entry] : prop_cache_) {
    pairs += entry.pairs.capacity();
  }
  return pairs * sizeof(IdPair);
}

ClauseBuilder::BestChoice ClauseBuilder::FindBestLiteral() {
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

  // Hop-1 results. A task whose (node, edge) is cached refreshes that entry
  // in place; any other task propagates into its own slot of `fresh`. Pool
  // tasks never touch the cache map: the lookup happens here, and the
  // admissions after the waves.
  std::vector<CandidateLiteral> scored(tasks.size());
  std::vector<PropagationResult> fresh(tasks.size());
  std::vector<PropagationResult*> hop1(tasks.size(), nullptr);
  for (size_t i = 0; i < tasks.size(); ++i) {
    const SearchTask& t = tasks[i];
    if (t.edge < 0 || t.edge2 >= 0) continue;
    auto it = prop_cache_.find({t.node, t.edge});
    hop1[i] = it == prop_cache_.end() ? &fresh[i] : &it->second;
  }
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
      PropagationResult* p = hop1[i];
      Stopwatch prop_watch;
      if (p == &fresh[i]) {
        *p = PropagateIds(*db_, edge, node_pairs_[static_cast<size_t>(t.node)],
                          alive_, opts_->propagation_limits,
                          &prop_scratch_[static_cast<size_t>(worker)]);
      } else {
        // The alive mask only shrank since this entry was filtered, so
        // erasing the dead pairs reproduces a fresh `PropagateIds` exactly —
        // including the limit verdict, which `RefreshPropagation` re-checks
        // (clearing `ok` when it now fails).
        RefreshPropagation(p, alive_, opts_->propagation_limits);
      }
      if (prop_time_ != nullptr) {
        prop_time_->AddSeconds(prop_watch.ElapsedSeconds());
      }
      if (p->ok) scored[i] = searcher.FindBest(edge.to_rel, p->pairs, *opts_);
    } else {
      // Hop 2: look-ahead, scored over a view of the parent task's hop-1
      // pairs in the lane's scratch; only an appended literal's hop is
      // materialized. Aggregation literals need the view distinct.
      const PropagationResult& parent = *hop1[static_cast<size_t>(t.parent)];
      if (!parent.ok) return;
      const JoinEdge& edge2 = edges[static_cast<size_t>(t.edge2)];
      PropagationScratch& scratch = prop_scratch_[static_cast<size_t>(worker)];
      Stopwatch view_watch;
      const bool ok = PropagateView(*db_, edge2, parent.pairs, alive_,
                                    opts_->propagation_limits,
                                    opts_->use_aggregation_literals, &scratch);
      if (prop_time_ != nullptr) {
        prop_time_->AddSeconds(view_watch.ElapsedSeconds());
      }
      if (!ok) {
        Bump(prop_rejected_);
        return;
      }
      scored[i] = searcher.FindBest(edge2.to_rel, scratch.view, *opts_);
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

  // Settle the cache in task-enumeration order, so it holds the same
  // entries after every round at any thread count: drop the entries whose
  // refresh failed, and admit fresh results while the slot budget allows.
  // Each entry is charged its destination relation's width.
  for (size_t i = 0; i < tasks.size(); ++i) {
    PropagationResult* p = hop1[i];
    if (p == nullptr) continue;
    const std::pair<int32_t, int32_t> key{tasks[i].node, tasks[i].edge};
    const uint64_t slots =
        db_->relation(edges[static_cast<size_t>(tasks[i].edge)].to_rel)
            .num_tuples();
    if (p != &fresh[i]) {
      Bump(prop_cache_refreshes_);
      if (p->ok) continue;
      Bump(prop_cache_evictions_);
      cached_slot_count_ -= slots;
      prop_cache_.erase(key);
      hop1[i] = nullptr;  // failed, so neither it nor its children can win
      continue;
    }
    Bump(prop_cache_misses_);
    Bump(prop_pairs_, p->pairs.size());
    if (!p->ok) {
      Bump(prop_rejected_);
      continue;
    }
    if (opts_->propagation_cache_slots == 0 ||
        cached_slot_count_ + slots > opts_->propagation_cache_slots) {
      continue;
    }
    cached_slot_count_ += slots;
    hop1[i] = &(prop_cache_[key] = std::move(*p));
  }
  // All tasks have joined and the cache is settled: sample the pair
  // footprint. The state here is identical at any thread count, so the
  // peak is thread-count invariant like every other counter.
  if (peak_id_bytes_ != nullptr) peak_id_bytes_->MaxWith(CurrentIdBytes());

  // Deterministic reduction in task-enumeration (= sequential-loop) order.
  size_t win = tasks.size();
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!scored[i].valid()) continue;
    if (scored[i].gain > (win < tasks.size() ? scored[win].gain : -1.0)) {
      win = i;
    }
  }
  BestChoice best;
  if (win == tasks.size()) return best;
  const SearchTask& t = tasks[win];
  best.cand = scored[win];
  best.source_node = t.node;
  if (t.edge >= 0) {
    best.edge_path.push_back(t.edge);
    // The winner's hop-1 pairs (a look-ahead winner's parent hop) travel
    // with it to `Append`: moved out of the task's slot, or copied when the
    // cache keeps them.
    const size_t h = t.parent >= 0 ? static_cast<size_t>(t.parent) : win;
    if (hop1[h] == &fresh[h]) {
      best.hop = std::move(fresh[h].pairs);
    } else {
      best.hop = hop1[h]->pairs;
    }
  }
  if (t.edge2 >= 0) best.edge_path.push_back(t.edge2);
  return best;
}

void ClauseBuilder::Append(BestChoice choice) {
  Bump(literals_accepted_);
  ComplexLiteral lit;
  lit.source_node = choice.source_node;
  lit.edge_path = choice.edge_path;
  lit.constraint = choice.cand.constraint;
  lit.gain = choice.cand.gain;
  const ComplexLiteral& added = clause_.Append(*db_, std::move(lit));

  // Materialize pairs for the nodes the prop-path created. The same hops
  // passed their limits during the search, so they cannot fail here.
  CM_CHECK(added.edge_path.size() <= 2);
  if (!added.edge_path.empty()) {
    // The hop-1 propagation the search just scored, reused as is.
    Bump(prop_cache_hits_);
    node_pairs_.push_back(std::move(choice.hop));
  }
  if (added.edge_path.size() == 2) {
    // The look-ahead hop was scored as a view; join it for real now.
    Stopwatch prop_watch;
    PropagationResult hop = PropagateIds(
        *db_, db_->edges()[static_cast<size_t>(added.edge_path[1])],
        node_pairs_.back(), alive_, opts_->propagation_limits,
        &prop_scratch_[0]);
    if (prop_time_ != nullptr) {
      prop_time_->AddSeconds(prop_watch.ElapsedSeconds());
    }
    CM_CHECK_MSG(hop.ok, "propagation failed while appending literal");
    Bump(prop_pairs_, hop.pairs.size());
    node_pairs_.push_back(std::move(hop.pairs));
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
