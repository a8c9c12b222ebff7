#include "baselines/bindings.h"

#include <algorithm>
#include <cstddef>

#include "common/macros.h"
#include "core/constraint_eval.h"

namespace crossmine::baselines {

BindingsTable::BindingsTable(const Database* db,
                             const std::vector<TupleId>& initial)
    : db_(db), col_rel_{db->target()} {
  rows_.reserve(initial.size());
  for (TupleId t : initial) rows_.push_back(t);
}

bool BindingsTable::Join(const JoinEdge& edge, int col, size_t max_rows,
                         BindingsTable* out, bool use_index) const {
  CM_CHECK(col >= 0 && col < num_cols());
  CM_CHECK(col_rel_[static_cast<size_t>(col)] == edge.from_rel);
  const Relation& src = db_->relation(edge.from_rel);
  const Relation& dst = db_->relation(edge.to_rel);
  const Column<int64_t>& src_col = src.IntColumn(edge.from_attr);
  const Column<int64_t>& dst_col = dst.IntColumn(edge.to_attr);

  std::vector<RelId> new_cols = col_rel_;
  new_cols.push_back(edge.to_rel);
  BindingsTable result(db_, std::move(new_cols), ColumnsTag{});

  size_t stride = col_rel_.size();
  size_t n = num_rows();
  size_t out_rows = 0;
  auto emit = [&](size_t r, TupleId u) {
    for (size_t c = 0; c < stride; ++c) {
      result.rows_.push_back(rows_[r * stride + c]);
    }
    result.rows_.push_back(u);
  };
  if (use_index) {
    std::shared_ptr<const AttrIndex> handle = dst.GetAttrIndex(edge.to_attr);
    const AttrIndex& index = *handle;
    CM_CHECK(index.has_postings());  // join edges run between keys
    for (size_t r = 0; r < n; ++r) {
      int64_t v = src_col[cell(r, col)];
      if (v == kNullValue) continue;
      size_t dv = index.FindValue(v);
      if (dv == AttrIndex::npos) continue;
      const TupleId* us = index.posting(dv);
      uint32_t count = index.posting_count(dv);
      out_rows += count;
      if (out_rows > max_rows) return false;
      for (uint32_t i = 0; i < count; ++i) emit(r, us[i]);
    }
  } else {
    // Nested-loop join: one full scan of the destination relation per
    // binding row.
    TupleId dst_n = dst.num_tuples();
    for (size_t r = 0; r < n; ++r) {
      int64_t v = src_col[cell(r, col)];
      if (v == kNullValue) continue;
      for (TupleId u = 0; u < dst_n; ++u) {
        if (dst_col[u] != v) continue;
        if (++out_rows > max_rows) return false;
        emit(r, u);
      }
    }
  }
  *out = std::move(result);
  return true;
}

void BindingsTable::Filter(const Constraint& c, int col) {
  CM_CHECK(c.agg == AggOp::kNone);
  const Relation& rel = db_->relation(col_rel_[static_cast<size_t>(col)]);
  size_t stride = col_rel_.size();
  size_t n = num_rows();
  size_t w = 0;
  for (size_t r = 0; r < n; ++r) {
    if (!TupleSatisfies(rel, cell(r, col), c)) continue;
    if (w != r) {
      std::copy(rows_.begin() + static_cast<ptrdiff_t>(r * stride),
                rows_.begin() + static_cast<ptrdiff_t>((r + 1) * stride),
                rows_.begin() + static_cast<ptrdiff_t>(w * stride));
    }
    ++w;
  }
  rows_.resize(w * stride);
}

void BindingsTable::FilterTargets(const std::vector<uint8_t>& keep) {
  size_t stride = col_rel_.size();
  size_t n = num_rows();
  size_t w = 0;
  for (size_t r = 0; r < n; ++r) {
    if (!keep[target_of(r)]) continue;
    if (w != r) {
      std::copy(rows_.begin() + static_cast<ptrdiff_t>(r * stride),
                rows_.begin() + static_cast<ptrdiff_t>((r + 1) * stride),
                rows_.begin() + static_cast<ptrdiff_t>(w * stride));
    }
    ++w;
  }
  rows_.resize(w * stride);
}

std::vector<uint32_t> BindingsTable::ClassCounts(
    const std::vector<ClassId>& labels, int num_classes) const {
  std::vector<uint32_t> counts(static_cast<size_t>(num_classes), 0);
  for (TupleId t : DistinctTargets()) {
    ++counts[static_cast<size_t>(labels[t])];
  }
  return counts;
}

std::vector<uint32_t> BindingsTable::RowClassCounts(
    const std::vector<ClassId>& labels, int num_classes) const {
  std::vector<uint32_t> counts(static_cast<size_t>(num_classes), 0);
  size_t n = num_rows();
  for (size_t r = 0; r < n; ++r) {
    ++counts[static_cast<size_t>(labels[target_of(r)])];
  }
  return counts;
}

std::vector<TupleId> BindingsTable::DistinctTargets() const {
  std::vector<TupleId> targets;
  size_t n = num_rows();
  targets.reserve(n);
  for (size_t r = 0; r < n; ++r) targets.push_back(target_of(r));
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  return targets;
}

std::vector<BaselineCandidate> CategoricalCandidates(
    const BindingsTable& table, int col, AttrId attr,
    const std::vector<ClassId>& labels, int num_classes) {
  const Relation& rel = table.db().relation(table.col_relation(col));
  const Column<int64_t>& values = rel.IntColumn(attr);

  // Collect (value, target) pairs, dedupe, then count per value per class.
  std::vector<std::pair<int64_t, TupleId>> pairs;
  size_t n = table.num_rows();
  pairs.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    int64_t v = values[table.cell(r, col)];
    if (v == kNullValue) continue;
    pairs.emplace_back(v, table.target_of(r));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<BaselineCandidate> out;
  size_t i = 0;
  while (i < pairs.size()) {
    int64_t v = pairs[i].first;
    BaselineCandidate cand;
    cand.constraint.attr = attr;
    cand.constraint.cmp = CmpOp::kEq;
    cand.constraint.category = v;
    cand.counts.assign(static_cast<size_t>(num_classes), 0);
    for (; i < pairs.size() && pairs[i].first == v; ++i) {
      ++cand.counts[static_cast<size_t>(labels[pairs[i].second])];
    }
    out.push_back(std::move(cand));
  }
  return out;
}

std::vector<BaselineCandidate> NumericalCandidates(
    const BindingsTable& table, int col, AttrId attr,
    const std::vector<ClassId>& labels, int num_classes) {
  const Relation& rel = table.db().relation(table.col_relation(col));
  const Column<double>& values = rel.DoubleColumn(attr);
  TupleId num_targets = table.db().target_relation().num_tuples();

  std::vector<std::pair<double, TupleId>> pairs;
  size_t n = table.num_rows();
  pairs.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    pairs.emplace_back(values[table.cell(r, col)], table.target_of(r));
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<BaselineCandidate> out;
  // Ascending sweep (<= v): cumulative distinct-target class counts.
  {
    std::vector<uint8_t> seen(num_targets, 0);
    std::vector<uint32_t> counts(static_cast<size_t>(num_classes), 0);
    for (size_t i = 0; i < pairs.size(); ++i) {
      TupleId t = pairs[i].second;
      if (!seen[t]) {
        seen[t] = 1;
        ++counts[static_cast<size_t>(labels[t])];
      }
      if (i + 1 < pairs.size() && pairs[i + 1].first == pairs[i].first) {
        continue;
      }
      BaselineCandidate cand;
      cand.constraint.attr = attr;
      cand.constraint.cmp = CmpOp::kLe;
      cand.constraint.threshold = pairs[i].first;
      cand.counts = counts;
      out.push_back(std::move(cand));
    }
  }
  // Descending sweep (>= v).
  {
    std::vector<uint8_t> seen(num_targets, 0);
    std::vector<uint32_t> counts(static_cast<size_t>(num_classes), 0);
    for (size_t i = pairs.size(); i-- > 0;) {
      TupleId t = pairs[i].second;
      if (!seen[t]) {
        seen[t] = 1;
        ++counts[static_cast<size_t>(labels[t])];
      }
      if (i > 0 && pairs[i - 1].first == pairs[i].first) continue;
      BaselineCandidate cand;
      cand.constraint.attr = attr;
      cand.constraint.cmp = CmpOp::kGe;
      cand.constraint.threshold = pairs[i].first;
      cand.counts = counts;
      out.push_back(std::move(cand));
    }
  }
  return out;
}

std::vector<BaselineCandidate> EvaluateByConstruction(
    const BindingsTable& table, int col, AttrId attr,
    const std::vector<ClassId>& labels, int num_classes, bool count_rows,
    int max_numeric_thresholds) {
  const Relation& rel = table.db().relation(table.col_relation(col));
  const Attribute& attr_info = rel.schema().attr(attr);
  size_t n = table.num_rows();

  // Enumerate the candidate constraints first.
  std::vector<Constraint> constraints;
  if (attr_info.kind == AttrKind::kCategorical) {
    const Column<int64_t>& values = rel.IntColumn(attr);
    std::vector<int64_t> distinct;
    distinct.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      int64_t v = values[table.cell(r, col)];
      if (v != kNullValue) distinct.push_back(v);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    for (int64_t v : distinct) {
      Constraint c;
      c.attr = attr;
      c.cmp = CmpOp::kEq;
      c.category = v;
      constraints.push_back(c);
    }
  } else {
    CM_CHECK(attr_info.kind == AttrKind::kNumerical);
    const Column<double>& values = rel.DoubleColumn(attr);
    std::vector<double> distinct;
    distinct.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      distinct.push_back(values[table.cell(r, col)]);
    }
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    // Subsample to an evenly spaced threshold grid.
    std::vector<double> grid;
    if (max_numeric_thresholds > 0 &&
        distinct.size() > static_cast<size_t>(max_numeric_thresholds)) {
      for (int i = 0; i < max_numeric_thresholds; ++i) {
        size_t idx = (distinct.size() - 1) * static_cast<size_t>(i) /
                     static_cast<size_t>(max_numeric_thresholds - 1);
        grid.push_back(distinct[idx]);
      }
      grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
    } else {
      grid = std::move(distinct);
    }
    for (double v : grid) {
      Constraint le;
      le.attr = attr;
      le.cmp = CmpOp::kLe;
      le.threshold = v;
      constraints.push_back(le);
      Constraint ge;
      ge.attr = attr;
      ge.cmp = CmpOp::kGe;
      ge.threshold = v;
      constraints.push_back(ge);
    }
  }

  // One full pass — and one materialized "dataset" — per candidate.
  TupleId num_targets = table.db().target_relation().num_tuples();
  std::vector<uint32_t> mark(count_rows ? 0 : num_targets, 0);
  uint32_t epoch = 0;
  std::vector<TupleId> constructed;  // the materialized filtered dataset
  std::vector<BaselineCandidate> out;
  out.reserve(constraints.size());
  for (const Constraint& c : constraints) {
    BaselineCandidate cand;
    cand.constraint = c;
    cand.counts.assign(static_cast<size_t>(num_classes), 0);
    constructed.clear();
    ++epoch;
    for (size_t r = 0; r < n; ++r) {
      if (!TupleSatisfies(rel, table.cell(r, col), c)) continue;
      TupleId target = table.target_of(r);
      constructed.push_back(target);
      if (count_rows) {
        ++cand.counts[static_cast<size_t>(labels[target])];
      } else if (mark[target] != epoch) {
        mark[target] = epoch;
        ++cand.counts[static_cast<size_t>(labels[target])];
      }
    }
    out.push_back(std::move(cand));
  }
  return out;
}

std::vector<BaselineCandidate> EvaluateJoinCandidates(
    const BindingsTable& table, int col, const JoinEdge& edge,
    const std::vector<ClassId>& labels, int num_classes, bool count_rows,
    bool use_numerical, int max_numeric_thresholds, size_t max_join_rows,
    bool* join_failed, bool use_index) {
  if (join_failed != nullptr) *join_failed = false;
  // Probe join: enumerates candidate constraints (and validates the row
  // budget) once.
  BindingsTable probe(&table.db(), std::vector<TupleId>{});
  if (!table.Join(edge, col, max_join_rows, &probe, use_index)) {
    if (join_failed != nullptr) *join_failed = true;
    return {};
  }
  int new_col = probe.num_cols() - 1;
  const Relation& rel = table.db().relation(edge.to_rel);

  std::vector<BaselineCandidate> out;
  for (AttrId a = 0; a < rel.schema().num_attrs(); ++a) {
    const Attribute& attr = rel.schema().attr(a);
    if (attr.kind != AttrKind::kCategorical &&
        !(attr.kind == AttrKind::kNumerical && use_numerical)) {
      continue;
    }
    // Enumerate candidates cheaply on the probe (zero-threshold pass), then
    // pay join + filter + count per candidate.
    std::vector<BaselineCandidate> enumerated = EvaluateByConstruction(
        probe, new_col, a, labels, num_classes, count_rows,
        max_numeric_thresholds);
    for (BaselineCandidate& cand : enumerated) {
      BindingsTable constructed(&table.db(), std::vector<TupleId>{});
      bool ok =
          table.Join(edge, col, max_join_rows, &constructed, use_index);
      CM_CHECK(ok);  // probe succeeded with the same budget
      constructed.Filter(cand.constraint, new_col);
      // The enumeration pass already computed the counts; the re-join and
      // filter above are the dataset construction every candidate pays in a
      // plain ILP engine. Recount from the constructed dataset so the
      // result provably comes from it.
      if (count_rows) {
        cand.counts = constructed.RowClassCounts(labels, num_classes);
      } else {
        cand.counts = constructed.ClassCounts(labels, num_classes);
      }
      out.push_back(std::move(cand));
    }
  }
  return out;
}

}  // namespace crossmine::baselines
