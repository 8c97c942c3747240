#include <gtest/gtest.h>

#include "relation/weak_instance.h"
#include "tests/test_util.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

TEST(PartialTupleTest, AccessAndRestrict) {
  PartialTuple t(AttributeSet{1, 3, 5}, {10, 30, 50});
  EXPECT_EQ(t.arity(), 3u);
  EXPECT_EQ(t.At(3), 30);
  EXPECT_TRUE(t.DefinedOn(5));
  EXPECT_FALSE(t.DefinedOn(2));
  PartialTuple r = t.Restrict(AttributeSet{1, 5});
  EXPECT_EQ(r.values(), (std::vector<Value>{10, 50}));
}

TEST(PartialTupleTest, AgreesOn) {
  PartialTuple a(AttributeSet{0, 1}, {1, 2});
  PartialTuple b(AttributeSet{1, 2}, {2, 3});
  EXPECT_TRUE(a.AgreesOn(b, AttributeSet{1}));
  PartialTuple c(AttributeSet{1, 2}, {9, 3});
  EXPECT_FALSE(a.AgreesOn(c, AttributeSet{1}));
}

TEST(PartialTupleTest, JoinCompatible) {
  PartialTuple a(AttributeSet{0, 1}, {1, 2});
  PartialTuple b(AttributeSet{1, 2}, {2, 3});
  auto joined = a.Join(b);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->attrs(), (AttributeSet{0, 1, 2}));
  EXPECT_EQ(joined->values(), (std::vector<Value>{1, 2, 3}));
}

TEST(PartialTupleTest, JoinClashReturnsEmpty) {
  PartialTuple a(AttributeSet{0, 1}, {1, 2});
  PartialTuple b(AttributeSet{1, 2}, {7, 3});
  EXPECT_FALSE(a.Join(b).has_value());
}

TEST(PartialTupleTest, JoinDisjointIsProduct) {
  PartialTuple a(AttributeSet{0}, {1});
  PartialTuple b(AttributeSet{2}, {3});
  auto joined = a.Join(b);
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->values(), (std::vector<Value>{1, 3}));
}

TEST(PartialRelationTest, AddUniqueDeduplicates) {
  PartialRelation r(AttributeSet{0, 1});
  EXPECT_TRUE(r.AddUnique(PartialTuple(AttributeSet{0, 1}, {1, 2})));
  EXPECT_FALSE(r.AddUnique(PartialTuple(AttributeSet{0, 1}, {1, 2})));
  EXPECT_TRUE(r.AddUnique(PartialTuple(AttributeSet{0, 1}, {1, 3})));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.Contains(PartialTuple(AttributeSet{0, 1}, {1, 2})));
  EXPECT_FALSE(r.Contains(PartialTuple(AttributeSet{0, 1}, {9, 9})));
}

TEST(PartialRelationTest, SetEquals) {
  PartialRelation a(AttributeSet{0});
  PartialRelation b(AttributeSet{0});
  a.Add({1});
  a.Add({2});
  b.Add({2});
  b.Add({1});
  b.Add({1});  // duplicate collapses under set semantics
  EXPECT_TRUE(a.SetEquals(b));
  b.Add({3});
  EXPECT_FALSE(a.SetEquals(b));

  // Wider rows, reversed order, duplicates on one side only.
  PartialRelation c(AttributeSet{0, 1});
  PartialRelation d(AttributeSet{0, 1});
  for (Value v = 0; v < 50; ++v) c.Add({v, v + 100});
  for (Value v = 50; v-- > 0;) {
    d.Add({v, v + 100});
    if (v % 7 == 0) d.Add({v, v + 100});
  }
  EXPECT_TRUE(c.SetEquals(d));
  EXPECT_TRUE(d.SetEquals(c));
  // Equal row counts, but a duplicate stands in for a missing row.
  PartialRelation e(AttributeSet{0, 1});
  for (Value v = 0; v < 49; ++v) e.Add({v, v + 100});
  e.Add({0, 100});
  EXPECT_FALSE(c.SetEquals(e));
  EXPECT_FALSE(e.SetEquals(c));
}

TEST(PartialRelationTest, SatisfiesFds) {
  PartialRelation r(AttributeSet{0, 1});
  r.Add({1, 2});
  r.Add({1, 2});
  r.Add({3, 4});
  FdSet f;
  f.Add(AttributeSet{0}, AttributeSet{1});
  EXPECT_TRUE(r.Satisfies(f));
  r.Add({1, 9});
  EXPECT_FALSE(r.Satisfies(f));
  // FDs not embedded in the relation are ignored.
  FdSet g;
  g.Add(AttributeSet{5}, AttributeSet{6});
  EXPECT_TRUE(r.Satisfies(g));
}

TEST(DatabaseStateTest, InsertByNameAndCount) {
  DatabaseState state(test::Example9());
  state.Insert("R1", {1, 2});
  state.Insert(0, {3, 4});
  state.Insert("R4", {7, 8});
  EXPECT_EQ(state.TupleCount(), 3u);
  EXPECT_EQ(state.relation(0).size(), 2u);
  EXPECT_EQ(state.relation(3).size(), 1u);
  EXPECT_TRUE(state.relation(1).empty());
}

TEST(WeakInstanceTest, EmptyStateIsConsistent) {
  DatabaseState state(test::Example3());
  EXPECT_TRUE(IsConsistent(state));
}

TEST(WeakInstanceTest, Example10InconsistentInsert) {
  // Example 10: s1 = {<a,b>}, s2 = {<b,c>}, s3 = ∅; inserting <a,c'> into
  // s3 is inconsistent.
  DatabaseScheme s = test::Example3();
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, c2 = 4;
  state.Insert("R1", {a, b});
  state.Insert("R2", {b, c});
  EXPECT_TRUE(IsConsistent(state));
  EXPECT_FALSE(WouldRemainConsistent(state, 2, Tuple(s, "AC", {a, c2})));
  EXPECT_TRUE(WouldRemainConsistent(state, 2, Tuple(s, "AC", {a, c})));
}

TEST(WeakInstanceTest, RepresentativeInstanceMergesFragments) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});  // A=1 B=2
  state.Insert("R2", {2, 3});  // B=2 C=3
  state.Insert("R3", {3, 4});  // C=3 D=4
  Result<Tableau> ri = RepresentativeInstance(state);
  ASSERT_TRUE(ri.ok());
  // Every row is total on ABCD (the chain closes in both directions).
  AttributeSet abcd = Attrs(s, "ABCD");
  for (size_t row = 0; row < ri->row_count(); ++row) {
    EXPECT_TRUE(ri->TotalOn(row, abcd));
  }
}

TEST(WeakInstanceTest, TotalProjectionByChase) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {2, 3});
  state.Insert("R1", {8, 9});  // unlinked second entity
  Result<PartialRelation> ac = TotalProjectionByChase(state, Attrs(s, "AC"));
  ASSERT_TRUE(ac.ok());
  ASSERT_EQ(ac->size(), 1u);
  EXPECT_EQ(ac->tuples()[0].values(), (std::vector<Value>{1, 3}));
  // [AB] has both entities.
  Result<PartialRelation> ab = TotalProjectionByChase(state, Attrs(s, "AB"));
  ASSERT_TRUE(ab.ok());
  EXPECT_EQ(ab->size(), 2u);
}

TEST(WeakInstanceTest, TotalProjectionOfInconsistentStateFails) {
  DatabaseScheme s = test::Example9();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R1", {1, 3});  // A -> B violated
  Result<PartialRelation> r = TotalProjectionByChase(state, Attrs(s, "AB"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInconsistent);
}

TEST(WeakInstanceTest, LocalVsGlobalConsistency) {
  // Example 1's motivation: R is not independent, so some locally
  // consistent state is globally inconsistent. Build one on Example 2's
  // scheme (the classic non-independent triangle).
  DatabaseScheme s = test::Example2();
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, c2 = 4;
  state.Insert("R1", {a, b});   // AB
  state.Insert("R2", {b, c});   // B -> C
  state.Insert("R3", {a, c2});  // A -> C with a different C
  EXPECT_TRUE(IsLocallyConsistent(state));
  EXPECT_FALSE(IsConsistent(state));
}

TEST(WeakInstanceTest, LocallyInconsistentDetected) {
  DatabaseScheme s = test::Example2();
  DatabaseState state(s);
  state.Insert("R2", {1, 2});
  state.Insert("R2", {1, 3});  // violates B -> C inside one relation
  EXPECT_FALSE(IsLocallyConsistent(state));
}

}  // namespace
}  // namespace ird
