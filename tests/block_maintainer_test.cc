// Whole-scheme maintenance through the front door, ShardedMaintainer: an
// insert is validated in its key-equivalent block only (Theorem 4.2), by
// Algorithm 5 on split-free blocks and Algorithm 2 on split blocks
// (Theorem 5.5).

#include <gtest/gtest.h>

#include "core/sharded_maintainer.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;
using test::Tuple;

TEST(BlockMaintainerTest, RejectsNonReducibleScheme) {
  DatabaseState state(test::Example2());
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  EXPECT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BlockMaintainerTest, Example1UniversityWorkflow) {
  // The motivating Example 1: the university database is ctm; exercise a
  // realistic insert sequence.
  DatabaseScheme s = test::Example1R();
  DatabaseState state(s);
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(std::move(state));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->IsCtm());
  constexpr Value h1 = 1, r1 = 2, c1 = 3, t1 = 4, s1 = 5, g1 = 6, t2 = 7;
  // course c1 taught by t1 in room r1 at hour h1.
  EXPECT_TRUE(m->Insert(0, Tuple(s, "HRC", {h1, r1, c1})).ok());
  EXPECT_TRUE(m->Insert(1, Tuple(s, "HTR", {h1, t1, r1})).ok());
  EXPECT_TRUE(m->Insert(2, Tuple(s, "HTC", {h1, t1, c1})).ok());
  // student s1 takes c1 with grade g1; s1 sits in r1 at h1.
  EXPECT_TRUE(m->Insert(3, Tuple(s, "CSG", {c1, s1, g1})).ok());
  EXPECT_TRUE(m->Insert(4, Tuple(s, "HSR", {h1, s1, r1})).ok());
  // A second teacher in the same room at the same hour: violates HR -> T.
  EXPECT_FALSE(m->Insert(1, Tuple(s, "HTR", {h1, t2, r1})).ok());
  // The final state is consistent.
  EXPECT_TRUE(IsConsistent(m->Materialize()));
}

TEST(BlockMaintainerTest, CtmFlagFollowsTheorem55) {
  {
    DatabaseState state(test::Example1R());
    auto m = ShardedMaintainer::Create(std::move(state));
    ASSERT_TRUE(m.ok());
    EXPECT_TRUE(m->IsCtm());
  }
  {
    // Example 4's scheme: one split block -> not ctm, but maintainable.
    DatabaseState state(test::Example4());
    auto m = ShardedMaintainer::Create(std::move(state));
    ASSERT_TRUE(m.ok());
    EXPECT_FALSE(m->IsCtm());
  }
}

TEST(BlockMaintainerTest, InsertsOnlyTouchTheRightBlock) {
  // An insert into block 2 must not be affected by block-1 contents.
  DatabaseScheme s = test::Example11();
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R4", {1, 9});  // A=1 D=9
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(std::move(state));
  ASSERT_TRUE(m.ok());
  // Block 2 (DEF/DEG): D=9 already exists in block 1's R4, but block 2 has
  // no tuples, so any D-value is insertable there.
  EXPECT_TRUE(m->Insert(4, Tuple(s, "DEF", {9, 3, 4})).ok());
  // Now D=9 determines E=3: a conflicting DEG insert fails.
  EXPECT_FALSE(m->Insert(5, Tuple(s, "DEG", {9, 7, 5})).ok());
  EXPECT_TRUE(m->Insert(5, Tuple(s, "DEG", {9, 3, 5})).ok());
}

TEST(BlockMaintainerTest, AgreesWithChaseOnStreams) {
  std::vector<DatabaseScheme> schemes = {
      test::Example1R(), test::Example11(), MakeBlockScheme(3, 3),
      MakeIndependentScheme(4), MakeSplitScheme(2)};
  for (const DatabaseScheme& s : schemes) {
    StateGenOptions opt;
    opt.entities = 20;
    opt.coverage = 0.6;
    opt.seed = 71;
    DatabaseState state = MakeConsistentState(s, opt);
    Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
    ASSERT_TRUE(m.ok()) << s.ToString();
    std::vector<InsertInstance> stream =
        MakeInsertStream(s, state, 40, 0.4, 73);
    for (const InsertInstance& ins : stream) {
      bool chase_verdict = WouldRemainConsistent(state, ins.rel, ins.tuple);
      EXPECT_EQ(m->CheckInsert(ins.rel, ins.tuple).ok(), chase_verdict)
          << s.relation(ins.rel).name << " "
          << ins.tuple.ToString(s.universe());
    }
  }
}

TEST(BlockMaintainerTest, AppliedStreamsStayConsistent) {
  DatabaseScheme s = MakeBlockScheme(2, 3);
  DatabaseState initial(s);
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(initial);
  ASSERT_TRUE(m.ok());
  std::vector<InsertInstance> stream =
      MakeInsertStream(s, initial, 80, 0.25, 79);
  size_t accepted = 0;
  for (const InsertInstance& ins : stream) {
    bool chase_verdict =
        WouldRemainConsistent(m->Materialize(), ins.rel, ins.tuple);
    Status applied = m->Insert(ins.rel, ins.tuple);
    EXPECT_EQ(applied.ok(), chase_verdict);
    accepted += applied.ok() ? 1 : 0;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_TRUE(IsConsistent(m->Materialize()));
}

TEST(BlockMaintainerTest, Section42LocalToGlobalArgument) {
  // The §4.2 claim itself: if every block substate is consistent, the
  // whole state is. Exercise with cross-block value sharing.
  DatabaseScheme s = test::Example11();
  DatabaseState state(s);
  constexpr Value a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7;
  state.Insert("R1", {a, b});
  state.Insert("R2", {b, c});
  state.Insert("R3", {a, c});
  state.Insert("R4", {a, d});
  state.mutable_relation(4).Add(Tuple(s, "DEF", {d, e, f}));
  state.mutable_relation(5).Add(Tuple(s, "DEG", {d, e, g}));
  Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(IsConsistent(state));
}

}  // namespace
}  // namespace ird
