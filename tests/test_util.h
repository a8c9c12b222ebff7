#ifndef CROSSMINE_TESTS_TEST_UTIL_H_
#define CROSSMINE_TESTS_TEST_UTIL_H_

// Shared fixtures and brute-force oracles for the CrossMine test suite.

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/clause_eval.h"
#include "core/constraint_eval.h"
#include "core/foil_gain.h"
#include "core/id_pairs.h"
#include "core/literal.h"
#include "relational/database.h"

namespace crossmine::testing {

/// The reference carrier of Definition 2's idsets: one sorted,
/// duplicate-free vector of target ids per tuple. Oracles and hand-written
/// expectations use it; the engine's `IdPairs` bridge to it below.
using IdSet = std::vector<TupleId>;

/// Sorts and deduplicates `ids` in place, establishing the IdSet invariant.
inline void NormalizeIdSet(IdSet* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

/// Merges sorted-unique `src` into sorted-unique `*dst` (set union).
inline void UnionInPlace(IdSet* dst, const IdSet& src) {
  IdSet merged;
  merged.reserve(dst->size() + src.size());
  std::set_union(dst->begin(), dst->end(), src.begin(), src.end(),
                 std::back_inserter(merged));
  *dst = std::move(merged);
}

/// Removes from `*ids` every id whose `alive` flag is 0.
inline void FilterIdSet(IdSet* ids, const std::vector<uint8_t>& alive) {
  std::erase_if(*ids, [&alive](TupleId id) { return !alive[id]; });
}

/// Applies `FilterIdSet` to every set, shrinking storage for emptied sets.
inline void FilterIdSets(std::vector<IdSet>* idsets,
                         const std::vector<uint8_t>& alive) {
  for (IdSet& ids : *idsets) {
    FilterIdSet(&ids, alive);
    if (ids.empty()) IdSet().swap(ids);
  }
}

/// Total number of ids across all sets.
inline uint64_t TotalIds(const std::vector<IdSet>& idsets) {
  uint64_t total = 0;
  for (const IdSet& ids : idsets) total += ids.size();
  return total;
}

/// The (tuple, id) pairs of `sets`, one per member. Every set must already
/// be sorted-unique.
inline IdPairs PairsFromIdSets(const std::vector<IdSet>& sets) {
  IdPairs pairs;
  for (TupleId t = 0; t < sets.size(); ++t) {
    for (TupleId id : sets[t]) pairs.push_back(MakeIdPair(t, id));
  }
  return pairs;
}

/// The idsets of `num_tuples` tuples held by `pairs`, checking the pair
/// invariant (sorted, duplicate-free, tuples in range) on the way.
inline std::vector<IdSet> IdSetsFromPairs(const IdPairs& pairs,
                                          TupleId num_tuples) {
  CM_CHECK(std::is_sorted(pairs.begin(), pairs.end()));
  CM_CHECK(std::adjacent_find(pairs.begin(), pairs.end()) == pairs.end());
  std::vector<IdSet> sets(num_tuples);
  for (IdPair p : pairs) {
    CM_CHECK(PairTuple(p) < num_tuples);
    sets[PairTuple(p)].push_back(PairId(p));
  }
  return sets;
}

/// `ApplyConstraint` over reference idsets: bridges them through pairs
/// (ids are target ids, so the universe is `satisfied->size()`).
inline void ApplyConstraintV(const Relation& rel, const Constraint& c,
                             const std::vector<uint8_t>& alive,
                             std::vector<IdSet>* idsets,
                             std::vector<uint8_t>* satisfied) {
  IdPairs pairs = PairsFromIdSets(*idsets);
  ApplyConstraint(rel, c, alive, &pairs, satisfied);
  *idsets = IdSetsFromPairs(pairs, static_cast<TupleId>(idsets->size()));
}

/// `EvaluateClause` over a 0/1 query mask parallel to the target relation,
/// returned as a mask again (tuples outside the query are 0).
inline std::vector<uint8_t> SatisfiedMask(const Database& db,
                                          const Clause& clause,
                                          const std::vector<uint8_t>& query) {
  std::vector<TupleId> ids;
  for (TupleId t = 0; t < query.size(); ++t) {
    if (query[t]) ids.push_back(t);
  }
  std::vector<uint8_t> flags = EvaluateClause(db, clause, ids);
  std::vector<uint8_t> mask(query.size(), 0);
  for (size_t i = 0; i < ids.size(); ++i) mask[ids[i]] = flags[i];
  return mask;
}

/// The sample database of Fig. 2 / Fig. 4 of the paper:
///
///   Loan(loan-id, account-id, amount, duration, payment, class)
///     (1,124,1000,12,120,+) (2,124,4000,12,350,+) (3,108,10000,24,500,-)
///     (4,45,12000,36,400,-) (5,45,2000,24,90,+)
///   Account(account-id, frequency, date)
///     (124,monthly,960227) (108,weekly,950923) (45,monthly,941209)
///     (67,weekly,950101)
///
/// Loan ids map to tuple ids 0..4, account-ids 124/108/45/67 to 0..3.
/// frequency codes: monthly=0, weekly=1. Class: + = 1, - = 0.
struct Fig2Database {
  Database db;
  RelId loan, account;
  AttrId loan_account, loan_amount, loan_duration, loan_payment;
  AttrId account_frequency, account_date;
  int64_t monthly, weekly;
};

inline Fig2Database MakeFig2Database() {
  Fig2Database f;

  RelationSchema account_schema("Account");
  account_schema.AddPrimaryKey("account_id");
  f.account_frequency = account_schema.AddCategorical("frequency");
  f.account_date = account_schema.AddNumerical("date");
  f.account = f.db.AddRelation(std::move(account_schema));

  RelationSchema loan_schema("Loan");
  loan_schema.AddPrimaryKey("loan_id");
  f.loan_account = loan_schema.AddForeignKey("account_id", f.account);
  f.loan_amount = loan_schema.AddNumerical("amount");
  f.loan_duration = loan_schema.AddNumerical("duration");
  f.loan_payment = loan_schema.AddNumerical("payment");
  f.loan = f.db.AddRelation(std::move(loan_schema));
  f.db.SetTarget(f.loan);

  Relation& account = f.db.mutable_relation(f.account);
  f.monthly = account.InternCategory(f.account_frequency, "monthly");
  f.weekly = account.InternCategory(f.account_frequency, "weekly");
  const struct {
    int64_t freq;
    double date;
  } accounts[] = {
      {f.monthly, 960227}, {f.weekly, 950923}, {f.monthly, 941209},
      {f.weekly, 950101}};
  for (const auto& row : accounts) {
    TupleId t = account.AddTuple();
    account.SetInt(t, 0, t);
    account.SetInt(t, f.account_frequency, row.freq);
    account.SetDouble(t, f.account_date, row.date);
  }

  Relation& loan = f.db.mutable_relation(f.loan);
  const struct {
    int64_t account;
    double amount, duration, payment;
    ClassId cls;
  } loans[] = {{0, 1000, 12, 120, 1},
               {0, 4000, 12, 350, 1},
               {1, 10000, 24, 500, 0},
               {2, 12000, 36, 400, 0},
               {2, 2000, 24, 90, 1}};
  std::vector<ClassId> labels;
  for (const auto& row : loans) {
    TupleId t = loan.AddTuple();
    loan.SetInt(t, 0, t);
    loan.SetInt(t, f.loan_account, row.account);
    loan.SetDouble(t, f.loan_amount, row.amount);
    loan.SetDouble(t, f.loan_duration, row.duration);
    loan.SetDouble(t, f.loan_payment, row.payment);
    labels.push_back(row.cls);
  }
  f.db.SetLabels(labels, 2);
  CM_CHECK(f.db.Finalize().ok());
  return f;
}

/// A random small database for property tests: `num_relations` relations
/// (relation 0 is the target), each non-target relation reached via a
/// random mix of FK directions, 1–2 categorical and 0–1 numerical
/// attributes per relation, random sizes, random labels. FK values may
/// dangle deliberately. `fk_values` (0 = `max_tuples`) bounds the FK value
/// range: a small range skews fan-in, so many source tuples share a join
/// value and propagation merges their ids into one run per value.
/// `null_fraction` is the share of FK values set to NULL.
inline Database MakeRandomDatabase(uint64_t seed, int num_relations = 3,
                                   int max_tuples = 30, int fk_values = 0,
                                   double null_fraction = 0.1) {
  if (fk_values == 0) fk_values = max_tuples;
  Rng rng(seed);
  Database db;
  // Relation 0: target with pk, one categorical, one numerical, and one FK
  // to each other relation (so the join graph is connected).
  std::vector<int> num_cats(static_cast<size_t>(num_relations));
  for (int r = 0; r < num_relations; ++r) {
    num_cats[static_cast<size_t>(r)] = 1 + static_cast<int>(rng.Uniform(2));
  }
  for (int r = 0; r < num_relations; ++r) {
    RelationSchema schema("T" + std::to_string(r));
    schema.AddPrimaryKey("id");
    for (int c = 0; c < num_cats[static_cast<size_t>(r)]; ++c) {
      schema.AddCategorical("c" + std::to_string(c));
    }
    schema.AddNumerical("x");
    if (r == 0) {
      for (int s = 1; s < num_relations; ++s) {
        schema.AddForeignKey("fk" + std::to_string(s), s);
      }
    } else if (rng.Bernoulli(0.5)) {
      schema.AddForeignKey("back", 0);  // FK back to the target
    }
    db.AddRelation(std::move(schema));
  }
  db.SetTarget(0);

  std::vector<ClassId> labels;
  for (int r = 0; r < num_relations; ++r) {
    Relation& rel = db.mutable_relation(r);
    const RelationSchema& schema = rel.schema();
    int64_t n = 2 + static_cast<int64_t>(rng.Uniform(
                        static_cast<uint64_t>(max_tuples - 1)));
    for (int64_t i = 0; i < n; ++i) {
      TupleId t = rel.AddTuple();
      rel.SetInt(t, 0, t);
      for (AttrId a = 1; a < schema.num_attrs(); ++a) {
        switch (schema.attr(a).kind) {
          case AttrKind::kCategorical:
            rel.SetInt(t, a, static_cast<int64_t>(rng.Uniform(4)));
            break;
          case AttrKind::kNumerical:
            rel.SetDouble(t, a, rng.UniformDouble(0, 10));
            break;
          case AttrKind::kForeignKey:
            // May dangle or be NULL — propagation must tolerate both.
            if (rng.Bernoulli(null_fraction)) {
              rel.SetInt(t, a, kNullValue);
            } else {
              rel.SetInt(t, a, static_cast<int64_t>(rng.Uniform(
                                   static_cast<uint64_t>(fk_values))));
            }
            break;
          case AttrKind::kPrimaryKey:
            break;
        }
      }
      if (r == 0) labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    }
  }
  db.SetLabels(std::move(labels), 2);
  CM_CHECK(db.Finalize().ok());
  return db;
}

/// A seeded sampling-like alive mask: each of `n` targets survives with
/// probability `keep`, like the sparse frontier §6 negative sampling leaves.
inline std::vector<uint8_t> RandomAliveMask(uint64_t seed, TupleId n,
                                            double keep) {
  Rng rng(seed);
  std::vector<uint8_t> alive(n);
  for (auto& a : alive) a = rng.Bernoulli(keep) ? 1 : 0;
  return alive;
}

/// Brute-force distinct-target coverage (§4.3): the alive positive and
/// negative targets in the union of `idsets` over the tuples accepted by
/// `keep`, collected through a std::set.
template <typename Keep>
std::pair<uint32_t, uint32_t> BruteForceCoverage(
    const std::vector<IdSet>& idsets, const std::vector<uint8_t>& alive,
    const std::vector<uint8_t>& positive, Keep keep) {
  std::set<TupleId> covered;
  for (TupleId u = 0; u < idsets.size(); ++u) {
    if (!keep(u)) continue;
    for (TupleId id : idsets[u]) {
      if (alive[id]) covered.insert(id);
    }
  }
  uint32_t pos = 0, neg = 0;
  for (TupleId id : covered) {
    if (positive[id]) {
      ++pos;
    } else {
      ++neg;
    }
  }
  return {pos, neg};
}

/// Brute-force best gain over every categorical value (and, with
/// `numerical`, every `<= v` / `>= v` threshold) of `rel`, under the
/// searcher's candidate rules: a literal must cover a positive and must not
/// cover every alive target. -1 when no literal qualifies, matching an
/// invalid `CandidateLiteral`.
inline double BruteForceBestGain(const Relation& rel,
                                 const std::vector<IdSet>& idsets,
                                 const std::vector<uint8_t>& alive,
                                 const std::vector<uint8_t>& positive,
                                 uint32_t pos, uint32_t neg, bool numerical) {
  double best = -1.0;
  auto offer = [&](std::pair<uint32_t, uint32_t> cov) {
    if (cov.first == 0 || (cov.first == pos && cov.second == neg)) return;
    best = std::max(best, FoilGain(pos, neg, cov.first, cov.second));
  };
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    AttrKind kind = rel.schema().attr(a).kind;
    if (kind == AttrKind::kCategorical) {
      std::set<int64_t> values;
      for (TupleId u = 0; u < rel.num_tuples(); ++u) {
        if (rel.Int(u, a) != kNullValue) values.insert(rel.Int(u, a));
      }
      for (int64_t v : values) {
        offer(BruteForceCoverage(idsets, alive, positive, [&](TupleId u) {
          return rel.Int(u, a) == v;
        }));
      }
    } else if (kind == AttrKind::kNumerical && numerical) {
      std::set<double> values;
      for (TupleId u = 0; u < rel.num_tuples(); ++u) {
        values.insert(rel.Double(u, a));
      }
      for (double v : values) {
        offer(BruteForceCoverage(idsets, alive, positive, [&](TupleId u) {
          return rel.Double(u, a) <= v;
        }));
        offer(BruteForceCoverage(idsets, alive, positive, [&](TupleId u) {
          return rel.Double(u, a) >= v;
        }));
      }
    }
  }
  return best;
}

/// Brute-force oracle for one propagation step: target ids joinable with
/// each destination tuple given source idsets (Definition 2).
inline std::vector<IdSet> BruteForcePropagate(
    const Database& db, const JoinEdge& edge,
    const std::vector<IdSet>& src_idsets, const std::vector<uint8_t>* alive) {
  const Relation& src = db.relation(edge.from_rel);
  const Relation& dst = db.relation(edge.to_rel);
  std::vector<IdSet> out(dst.num_tuples());
  for (TupleId u = 0; u < dst.num_tuples(); ++u) {
    int64_t uv = dst.Int(u, edge.to_attr);
    if (uv == kNullValue) continue;
    std::set<TupleId> ids;
    for (TupleId t = 0; t < src.num_tuples(); ++t) {
      if (src.Int(t, edge.from_attr) != uv) continue;
      for (TupleId id : src_idsets[t]) {
        if (alive == nullptr || (*alive)[id]) ids.insert(id);
      }
    }
    out[u].assign(ids.begin(), ids.end());
  }
  return out;
}

/// Brute-force oracle for clause satisfaction: replays the clause's node
/// idsets with BruteForcePropagate + ApplyConstraint.
inline std::vector<uint8_t> BruteForceClauseSatisfied(
    const Database& db, const Clause& clause,
    const std::vector<uint8_t>& query) {
  TupleId n = db.target_relation().num_tuples();
  std::vector<uint8_t> alive = query;
  std::vector<std::vector<IdSet>> nodes;
  std::vector<IdSet> root(n);
  for (TupleId t = 0; t < n; ++t) {
    if (alive[t]) root[t] = {t};
  }
  nodes.push_back(std::move(root));
  std::vector<uint8_t> satisfied(n, 0);
  for (const ComplexLiteral& lit : clause.literals()) {
    const std::vector<IdSet>* cur =
        &nodes[static_cast<size_t>(lit.source_node)];
    for (int32_t e : lit.edge_path) {
      nodes.push_back(BruteForcePropagate(
          db, db.edges()[static_cast<size_t>(e)], *cur, &alive));
      cur = &nodes.back();
    }
    int32_t cnode = lit.ConstraintNode();
    const Relation& rel =
        db.relation(clause.nodes()[static_cast<size_t>(cnode)].relation);
    ApplyConstraintV(rel, lit.constraint, alive,
                     &nodes[static_cast<size_t>(cnode)], &satisfied);
    for (TupleId t = 0; t < n; ++t) alive[t] = alive[t] && satisfied[t];
    for (std::vector<IdSet>& idsets : nodes) {
      FilterIdSets(&idsets, alive);
    }
  }
  return alive;
}

}  // namespace crossmine::testing

#endif  // CROSSMINE_TESTS_TEST_UTIL_H_
