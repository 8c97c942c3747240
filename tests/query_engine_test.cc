// Bounded queries through the front door: ShardedState runs recognition
// once, compiles each requested X-total projection into its Theorem 4.1
// expression on first use and caches the plan — the "predetermined
// relational expressions" of boundedness as a long-lived plan cache.

#include <gtest/gtest.h>

#include "core/sharded_maintainer.h"
#include "core/sharded_state.h"
#include "relation/weak_instance.h"
#include "tests/test_util.h"
#include "workload/generators.h"

namespace ird {
namespace {

using test::Attrs;

TEST(BoundedQueryTest, RejectsNonReducibleSchemes) {
  Result<ShardedState> engine =
      ShardedState::Create(DatabaseState(test::Example2()));
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BoundedQueryTest, PlansAreCached) {
  Result<ShardedState> engine =
      ShardedState::Create(DatabaseState(test::Example1R()));
  ASSERT_TRUE(engine.ok());
  AttributeSet hsc = Attrs(engine->scheme(), "HSC");
  ExprPtr first = engine->PlanFor(hsc);
  ASSERT_NE(first, nullptr);
  ExprPtr second = engine->PlanFor(hsc);
  EXPECT_EQ(first.get(), second.get());
  // A different target compiles its own plan, and caching it leaves the
  // first entry in place.
  ExprPtr tc = engine->PlanFor(Attrs(engine->scheme(), "TC"));
  ASSERT_NE(tc, nullptr);
  EXPECT_NE(tc.get(), first.get());
  EXPECT_EQ(engine->PlanFor(Attrs(engine->scheme(), "TC")).get(), tc.get());
  EXPECT_EQ(engine->PlanFor(hsc).get(), first.get());
}

TEST(BoundedQueryTest, UncoverableProjectionIsEmpty) {
  DatabaseScheme s = DatabaseScheme::Create();
  s.AddRelation("R1", "AB", {"A"});
  s.AddRelation("R2", "CD", {"C"});
  DatabaseState state(s);
  state.Insert("R1", {1, 2});
  state.Insert("R2", {3, 4});
  Result<ShardedState> engine = ShardedState::Create(state);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->PlanFor(Attrs(s, "AC")), nullptr);
  EXPECT_TRUE(engine->TotalProjection(Attrs(s, "AC")).empty());
}

TEST(BoundedQueryTest, MatchesChaseAcrossStatesAndTargets) {
  std::vector<DatabaseScheme> schemes = {test::Example1R(), test::Example11(),
                                         MakeBlockScheme(2, 3)};
  for (const DatabaseScheme& s : schemes) {
    for (uint64_t seed : {3u, 4u}) {
      StateGenOptions opt;
      opt.entities = 12;
      opt.seed = seed;
      DatabaseState state = MakeConsistentState(s, opt);
      Result<ShardedMaintainer> engine = ShardedMaintainer::Create(state);
      ASSERT_TRUE(engine.ok());
      for (const RelationScheme& r : s.relations()) {
        PartialRelation answer = engine->TotalProjection(r.attrs);
        Result<PartialRelation> chase = TotalProjectionByChase(state, r.attrs);
        ASSERT_TRUE(chase.ok());
        EXPECT_TRUE(answer.SetEquals(*chase)) << r.name;
        // A repeated query reuses the cached plan and answers the same.
        EXPECT_TRUE(engine->TotalProjection(r.attrs).SetEquals(answer))
            << r.name;
      }
    }
  }
}

}  // namespace
}  // namespace ird
