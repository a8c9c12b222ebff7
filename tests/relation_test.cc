#include "relational/relation.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace crossmine {
namespace {

RelationSchema MakeSchema() {
  RelationSchema s("R");
  s.AddPrimaryKey("id");       // 0
  s.AddCategorical("color");   // 1
  s.AddNumerical("price");     // 2
  s.AddForeignKey("other", 1); // 3
  return s;
}

TEST(RelationTest, StartsEmpty) {
  Relation r(MakeSchema());
  EXPECT_EQ(r.num_tuples(), 0u);
  EXPECT_EQ(r.name(), "R");
}

TEST(RelationTest, AddTupleDefaults) {
  Relation r(MakeSchema());
  TupleId t = r.AddTuple();
  EXPECT_EQ(t, 0u);
  EXPECT_EQ(r.Int(t, 0), kNullValue);
  EXPECT_EQ(r.Int(t, 1), kNullValue);
  EXPECT_DOUBLE_EQ(r.Double(t, 2), 0.0);
  EXPECT_EQ(r.Int(t, 3), kNullValue);
}

TEST(RelationTest, SetAndGetCells) {
  Relation r(MakeSchema());
  TupleId t = r.AddTuple();
  r.SetInt(t, 0, 10);
  r.SetInt(t, 1, 2);
  r.SetDouble(t, 2, 3.5);
  r.SetInt(t, 3, 77);
  EXPECT_EQ(r.Int(t, 0), 10);
  EXPECT_EQ(r.Int(t, 1), 2);
  EXPECT_DOUBLE_EQ(r.Double(t, 2), 3.5);
  EXPECT_EQ(r.Int(t, 3), 77);
}

TEST(RelationTest, KindMismatchAborts) {
  Relation r(MakeSchema());
  TupleId t = r.AddTuple();
  EXPECT_DEATH(r.Double(t, 0), "");
  EXPECT_DEATH(r.Int(t, 2), "");
}

TEST(RelationTest, Columns) {
  Relation r(MakeSchema());
  for (int i = 0; i < 3; ++i) {
    TupleId t = r.AddTuple();
    r.SetInt(t, 1, i);
    r.SetDouble(t, 2, i * 1.5);
  }
  EXPECT_EQ(std::vector<int64_t>(r.IntColumn(1).begin(), r.IntColumn(1).end()),
            (std::vector<int64_t>{0, 1, 2}));
  EXPECT_EQ(std::vector<double>(r.DoubleColumn(2).begin(),
                                r.DoubleColumn(2).end()),
            (std::vector<double>{0.0, 1.5, 3.0}));
}

// Posting list of `value`, or empty if absent — the join-probe idiom every
// former GetHashIndex consumer now uses.
std::vector<TupleId> Posting(const AttrIndex& index, int64_t value) {
  size_t v = index.FindValue(value);
  if (v == AttrIndex::npos) return {};
  return std::vector<TupleId>(index.posting(v),
                              index.posting(v) + index.posting_count(v));
}

// Number of tuples holding `value`: all a categorical index records.
uint32_t Count(const AttrIndex& index, int64_t value) {
  size_t v = index.FindValue(value);
  return v == AttrIndex::npos ? 0 : index.posting_count(v);
}

TEST(RelationTest, AttrIndexGroupsByValue) {
  Relation r(MakeSchema());
  int64_t values[] = {5, 7, 5, 9, 5};
  for (int64_t v : values) {
    TupleId t = r.AddTuple();
    r.SetInt(t, 3, v);
    r.SetInt(t, 1, v);
  }
  auto index = r.GetAttrIndex(3);
  EXPECT_EQ(testing::PresentValues(*index), (std::vector<int64_t>{5, 7, 9}));
  EXPECT_EQ(Posting(*index, 5), (std::vector<TupleId>{0, 2, 4}));
  EXPECT_EQ(Posting(*index, 7), (std::vector<TupleId>{1}));
  EXPECT_EQ(Posting(*index, 9), (std::vector<TupleId>{3}));
  EXPECT_EQ(index->FindValue(6), AttrIndex::npos);
  // The categorical twin keeps the same slots and counts, no postings.
  auto categorical = r.GetAttrIndex(1);
  EXPECT_FALSE(categorical->has_postings());
  EXPECT_EQ(testing::PresentValues(*categorical),
            (std::vector<int64_t>{5, 7, 9}));
  EXPECT_EQ(Count(*categorical, 5), 3u);
  EXPECT_EQ(Count(*categorical, 6), 0u);
}

TEST(RelationTest, AttrIndexSkipsNulls) {
  Relation r(MakeSchema());
  TupleId a = r.AddTuple();
  r.SetInt(a, 1, 4);
  r.AddTuple();  // stays NULL
  auto index = r.GetAttrIndex(1);
  EXPECT_EQ(testing::PresentValues(*index), (std::vector<int64_t>{4}));
  EXPECT_EQ(index->FindValue(kNullValue), AttrIndex::npos);
}

TEST(RelationTest, AttrIndexInvalidatedByMutation) {
  Relation r(MakeSchema());
  TupleId t = r.AddTuple();
  r.SetInt(t, 1, 1);
  EXPECT_EQ(Count(*r.GetAttrIndex(1), 1), 1u);
  r.SetInt(t, 1, 2);
  auto index = r.GetAttrIndex(1);
  EXPECT_EQ(index->FindValue(1), AttrIndex::npos);
  EXPECT_EQ(Count(*index, 2), 1u);
}

TEST(RelationTest, AttrIndexInvalidatedByAddTuple) {
  Relation r(MakeSchema());
  TupleId a = r.AddTuple();
  r.SetInt(a, 1, 3);
  EXPECT_EQ(Count(*r.GetAttrIndex(1), 3), 1u);
  TupleId b = r.AddTuple();
  r.SetInt(b, 1, 3);
  EXPECT_EQ(Count(*r.GetAttrIndex(1), 3), 2u);
}

TEST(RelationTest, SortedIndexOrdersByValue) {
  Relation r(MakeSchema());
  double values[] = {5.0, 1.0, 3.0, 2.0, 4.0};
  for (double v : values) {
    TupleId t = r.AddTuple();
    r.SetDouble(t, 2, v);
  }
  EXPECT_EQ(*r.GetSortedIndex(2), (std::vector<TupleId>{1, 3, 2, 4, 0}));
}

TEST(RelationTest, SortedIndexStableForTies) {
  Relation r(MakeSchema());
  double values[] = {2.0, 1.0, 2.0, 1.0};
  for (double v : values) {
    TupleId t = r.AddTuple();
    r.SetDouble(t, 2, v);
  }
  EXPECT_EQ(*r.GetSortedIndex(2), (std::vector<TupleId>{1, 3, 0, 2}));
}

TEST(RelationTest, SortedIndexInvalidatedByMutation) {
  Relation r(MakeSchema());
  TupleId a = r.AddTuple();
  TupleId b = r.AddTuple();
  r.SetDouble(a, 2, 1.0);
  r.SetDouble(b, 2, 2.0);
  EXPECT_EQ(r.GetSortedIndex(2)->front(), a);
  r.SetDouble(a, 2, 3.0);
  EXPECT_EQ(r.GetSortedIndex(2)->front(), b);
}

TEST(RelationTest, DictionaryInternAndLookup) {
  Relation r(MakeSchema());
  EXPECT_EQ(r.InternCategory(1, "red"), 0);
  EXPECT_EQ(r.InternCategory(1, "blue"), 1);
  EXPECT_EQ(r.InternCategory(1, "red"), 0);  // idempotent
  EXPECT_EQ(r.CategoryName(1, 0), "red");
  EXPECT_EQ(r.CategoryName(1, 1), "blue");
  EXPECT_EQ(r.Dictionary(1).size(), 2u);
}

TEST(RelationTest, CategoryNameFallsBackToNumber) {
  Relation r(MakeSchema());
  EXPECT_EQ(r.CategoryName(1, 42), "42");
  EXPECT_EQ(r.CategoryName(1, -1), "-1");
}

}  // namespace
}  // namespace crossmine
