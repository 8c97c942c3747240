#include "oracle/differential.h"

#include <numeric>
#include <optional>
#include <random>

#include "core/block_shard.h"
#include "core/classify.h"
#include "core/consistency.h"
#include "core/expression_maintenance.h"
#include "core/independence.h"
#include "core/independence_witness.h"
#include "core/kep.h"
#include "core/key_equivalence.h"
#include "core/recognition.h"
#include "core/representative_index.h"
#include "core/sharded_maintainer.h"
#include "core/split.h"
#include "core/total_projection.h"
#include "engine/scheme_analysis.h"
#include "oracle/chase_check.h"
#include "oracle/naive_chase.h"
#include "oracle/naive_independence.h"
#include "oracle/naive_kep.h"
#include "oracle/naive_recognition.h"
#include "oracle/naive_split.h"
#include "obs/obs.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

namespace ird::oracle {

namespace {

std::string PartitionToString(const DatabaseScheme& scheme,
                              const std::vector<std::vector<size_t>>& blocks) {
  std::string out;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (b > 0) out += " | ";
    out += "{";
    for (size_t k = 0; k < blocks[b].size(); ++k) {
      if (k > 0) out += ",";
      out += scheme.relation(blocks[b][k]).name;
    }
    out += "}";
  }
  return out;
}

std::string StateToString(const DatabaseState& state) {
  std::string out;
  for (size_t i = 0; i < state.scheme().size(); ++i) {
    out += state.scheme().relation(i).name + ": " +
           state.relation(i).ToString(state.scheme().universe()) + "\n";
  }
  return out;
}

bool SameInduced(const std::optional<DatabaseScheme>& a,
                 const std::optional<DatabaseScheme>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  if (a->size() != b->size()) return false;
  for (size_t i = 0; i < a->size(); ++i) {
    if (a->relation(i).attrs != b->relation(i).attrs ||
        a->relation(i).keys != b->relation(i).keys) {
      return false;
    }
  }
  return true;
}

bool SameRecognition(const RecognitionResult& a, const RecognitionResult& b) {
  if (a.accepted != b.accepted || a.partition != b.partition) return false;
  if (a.violation.has_value() != b.violation.has_value()) return false;
  if (a.violation.has_value() &&
      (a.violation->i != b.violation->i || a.violation->j != b.violation->j ||
       a.violation->key != b.violation->key ||
       a.violation->attribute != b.violation->attribute)) {
    return false;
  }
  return SameInduced(a.induced, b.induced);
}

class Comparator {
 public:
  Comparator(const DatabaseScheme& scheme, const DifferentialOptions& options)
      : scheme_(scheme), options_(options) {}

  std::vector<Disagreement> Run() {
    IRD_SPAN("oracle.compare");
    CompareStructural();
    CompareStates();
    return std::move(found_);
  }

 private:
  void Report(std::string routine, std::string detail) {
    found_.push_back({std::move(routine), std::move(detail)});
  }

  void Expect(bool agree, const std::string& routine, std::string detail) {
    IRD_COUNT(oracle.comparisons);
    if (!agree) Report(routine, std::move(detail));
  }

  // A random nonempty projection target: each attribute with chance 1/3.
  AttributeSet RandomTarget(std::mt19937_64& rng) const {
    std::vector<AttributeId> all = scheme_.AllAttrs().ToVector();
    AttributeSet x;
    for (AttributeId a : all) {
      if (rng() % 3 == 0) x.Add(a);
    }
    if (x.Empty()) x.Add(all[rng() % all.size()]);
    return x;
  }

  void CompareStructural() {
    const size_t n = scheme_.size();

    // Losslessness: BMSU closure shortcut vs optimized chase vs naive chase.
    bool lossless_naive = IsLosslessNaive(scheme_);
    Expect(scheme_.IsLossless() == lossless_naive, "lossless/bmsu",
           "IsLossless disagrees with the chased scheme tableau");
    Expect(IsLosslessByChase(scheme_) == lossless_naive, "lossless/chase",
           "optimized chase disagrees with exhaustive chase on T_R");

    // Chase implementations: delta-driven vs pass-based vs exhaustive
    // pairwise, on the scheme tableau and generated state tableaux (final
    // canonical tableau, consistency verdict and equate count must agree).
    {
      Status chase = ChaseSelfCheck(scheme_, options_.seed + 7);
      Expect(chase.ok(), "tableau/chase-vs-naive",
             chase.ok() ? "" : chase.ToString());
    }

    // Key-equivalence: Algorithm 3 vs the FD-closure definition.
    bool ke = IsKeyEquivalent(scheme_);
    Expect(ke == IsKeyEquivalentOracle(scheme_), "key-equivalence/alg3",
           "Algorithm 3 scheme closures disagree with naive FD closures");

    // Split analysis, key by key, over the whole scheme.
    for (const auto& [rel, key] : scheme_.AllKeys()) {
      bool oracle_split = IsKeySplitOracle(scheme_, key);
      std::string which = "key " + scheme_.universe().Format(key) + " of " +
                          scheme_.relation(rel).name;
      Expect(IsKeySplit(scheme_, key) == oracle_split, "split/lemma38",
             "Lemma 3.8 disagrees with the computation walk on " + which);
      Expect(IsKeySplitByDefinition(scheme_, key) == oracle_split,
             "split/definition-bfs",
             "closure-state BFS disagrees with the computation walk on " +
                 which);
    }

    // Independence: uniqueness condition plus its semantic grounding.
    bool independent = IsIndependent(scheme_);
    Expect(independent == IsIndependentOracle(scheme_),
           "independence/uniqueness",
           "ClosureEngine uniqueness test disagrees with naive closures");
    if (independent) {
      std::optional<DatabaseState> gap =
          SearchLsatWsatGap(scheme_, options_.lsat_trials,
                            options_.lsat_max_tuples, options_.lsat_domain,
                            options_.seed + 101);
      Expect(!gap.has_value(), "independence/lsat-wsat",
             "scheme declared independent but a locally consistent, "
             "globally inconsistent state exists");
    } else {
      Result<DatabaseState> witness = BuildDependenceWitness(scheme_);
      if (!witness.ok()) {
        Report("independence/witness",
               "scheme declared dependent but BuildDependenceWitness "
               "failed: " +
                   witness.status().ToString());
      } else {
        Expect(IsLocallyConsistent(*witness) && !IsConsistentNaive(*witness),
               "independence/witness",
               "constructed dependence witness is not an LSAT/WSAT gap "
               "under the exhaustive chase");
      }
    }

    // KEP vs maximal key-equivalent subsets.
    RecognitionResult recognition = RecognizeIndependenceReducible(scheme_);
    if (n <= options_.max_subset_enum) {
      std::vector<std::vector<size_t>> maximal =
          MaximalKeyEquivalentSubsets(scheme_);
      Expect(recognition.partition == maximal, "kep/partition",
             "KEP = " + PartitionToString(scheme_, recognition.partition) +
                 " but maximal key-equivalent subsets = " +
                 PartitionToString(scheme_, maximal));
    }

    // Recognition: Algorithm 6 vs set-partition enumeration, plus an
    // unconditional audit of the accepting partition.
    if (n <= options_.max_partition_enum) {
      Expect(recognition.accepted == IsIndependenceReducibleOracle(scheme_),
             "recognition/alg6",
             std::string("Algorithm 6 ") +
                 (recognition.accepted ? "accepted" : "rejected") +
                 " but partition enumeration says otherwise");
    }
    if (recognition.accepted) {
      for (const std::vector<size_t>& block : recognition.partition) {
        Expect(IsKeyEquivalentOracle(scheme_, block), "recognition/blocks",
               "accepted block " +
                   PartitionToString(scheme_, {block}) +
                   " is not key-equivalent by the oracle");
      }
      Expect(IsIndependentOracle(*recognition.induced),
             "recognition/induced",
             "accepted induced scheme is not independent by the oracle");
    }

    // Engine determinism: a SchemeAnalysis-backed recognition — cold (fresh
    // caches) and warm (every slot, cover and memo already filled) — must
    // reproduce the wrapper's result bit for bit, and the memoized split
    // keys must match the per-call computation. The oracle layer itself
    // deliberately never adopts the shared context (see docs/TESTING.md);
    // these checks are the bridge that keeps the memoized engine honest.
    {
      SchemeAnalysis analysis(scheme_);
      RecognitionResult cold = RecognizeIndependenceReducible(analysis);
      Expect(SameRecognition(cold, recognition), "engine/recognition",
             "SchemeAnalysis-backed recognition disagrees with the "
             "scheme-level wrapper");
      RecognitionResult warm = RecognizeIndependenceReducible(analysis);
      Expect(SameRecognition(warm, cold), "engine/recognition-cached",
             "fully cached recognition differs from the cold run on the "
             "same analysis");
      Expect(SplitKeys(analysis) == SplitKeys(scheme_), "engine/split-keys",
             "memoized split keys disagree with the per-call computation");
    }

    // Classification flags vs the oracle-assembled report.
    if (n <= options_.max_partition_enum) {
      SchemeClassification c = ClassifyScheme(scheme_, false);
      OracleClassification o = ClassifySchemeOracle(scheme_);
      Expect(c.lossless == o.lossless, "classify/lossless", "lossless flag");
      Expect(c.independent == o.independent, "classify/independent",
             "independent flag");
      Expect(c.key_equivalent == o.key_equivalent, "classify/key-equivalent",
             "key-equivalent flag");
      Expect(c.independence_reducible == o.independence_reducible,
             "classify/reducible", "independence-reducible flag");
      Expect(c.split_free == o.split_free, "classify/split-free",
             "split-free flag");
      Expect(c.ctm == o.ctm, "classify/ctm", "ctm flag (Theorem 5.5)");
    }
  }

  void CompareStates() {
    StateGenOptions state_opt;
    state_opt.entities = options_.state_entities;
    state_opt.coverage = options_.state_coverage;
    state_opt.seed = options_.seed + 1;
    DatabaseState state = MakeConsistentState(scheme_, state_opt);

    // Consistency of the generated state: true by construction, and the
    // optimized chase must agree with the exhaustive one.
    bool naive_consistent = IsConsistentNaive(state);
    Expect(naive_consistent, "chase/generator",
           "MakeConsistentState produced a state the exhaustive chase "
           "rejects");
    Expect(IsConsistent(state) == naive_consistent, "chase/consistency",
           "optimized chase disagrees with exhaustive chase on the "
           "generated state");
    if (!naive_consistent) return;  // everything below assumes consistency

    RecognitionResult recognition = RecognizeIndependenceReducible(scheme_);
    if (recognition.accepted) {
      Expect(CheckConsistencyByBlocks(state, recognition).ok(),
             "chase/by-blocks",
             "block-decomposed consistency check rejects a consistent "
             "state");
    }

    bool ke = IsKeyEquivalent(scheme_);
    bool ctm = ke && IsSplitFree(scheme_);

    // Total projections: predetermined expressions and the representative
    // index vs the exhaustive chase.
    std::mt19937_64 rng(options_.seed + 2);
    if (recognition.accepted) {
      for (size_t round = 0; round < options_.projection_targets; ++round) {
        AttributeSet x = RandomTarget(rng);
        Result<PartialRelation> naive = TotalProjectionNaive(state, x);
        if (!naive.ok()) continue;
        PartialRelation bounded = TotalProjection(state, recognition, x);
        Expect(bounded.SetEquals(*naive), "projection/theorem41",
               "bounded expression for [" + scheme_.universe().Format(x) +
                   "] disagrees with the exhaustive chase");
        Result<PartialRelation> chased = TotalProjectionByChase(state, x);
        Expect(chased.ok() && chased->SetEquals(*naive), "projection/chase",
               "optimized-chase [" + scheme_.universe().Format(x) +
                   "] disagrees with the exhaustive chase");
      }
    }
    if (ke) {
      Result<RepresentativeIndex> index = RepresentativeIndex::Build(state);
      if (!index.ok()) {
        Report("projection/algorithm1",
               "RepresentativeIndex::Build failed on a consistent state: " +
                   index.status().ToString());
      } else {
        for (const RelationScheme& r : scheme_.relations()) {
          Result<PartialRelation> naive = TotalProjectionNaive(state, r.attrs);
          Expect(naive.ok() && index->TotalProjection(r.attrs)
                     .SetEquals(*naive),
                 "projection/algorithm1",
                 "representative index [" + r.name +
                     "] disagrees with the exhaustive chase");
        }
      }
    }

    // Maintenance: every applicable maintainer vs re-chasing exhaustively.
    // The whole-scheme Algorithm 2 and 5 checks are one BlockShard over
    // every relation, with the algorithm chosen by its split_free flag.
    std::optional<ShardedMaintainer> block;
    if (recognition.accepted) {
      Result<ShardedMaintainer> m = ShardedMaintainer::Create(state);
      if (m.ok()) {
        block.emplace(std::move(m).value());
      } else {
        Report("maintenance/block",
               "sharded maintainer rejected a consistent state: " +
                   m.status().ToString());
      }
    }
    std::vector<size_t> all_relations(scheme_.size());
    std::iota(all_relations.begin(), all_relations.end(), 0);
    std::optional<BlockShard> alg2;
    std::optional<ExpressionLookupPlan> plan;
    if (ke) {
      Result<BlockShard> m = BlockShard::Build(
          state, all_relations, /*split_free=*/false,
          /*verify_consistency=*/true);
      if (m.ok()) {
        alg2.emplace(std::move(m).value());
      } else {
        Report("maintenance/alg2",
               "Algorithm 2 shard rejected a consistent state: " +
                   m.status().ToString());
      }
      plan.emplace(ExpressionLookupPlan::Build(scheme_));
    }
    std::optional<BlockShard> alg5;
    if (ctm) {
      Result<BlockShard> m = BlockShard::Build(
          state, all_relations, /*split_free=*/true,
          /*verify_consistency=*/true);
      if (m.ok()) {
        alg5.emplace(std::move(m).value());
      } else {
        Report("maintenance/alg5",
               "Algorithm 5 shard rejected a consistent state: " +
                   m.status().ToString());
      }
    }

    std::vector<InsertInstance> stream =
        MakeInsertStream(scheme_, state, options_.insert_count,
                         options_.conflict_rate, options_.seed + 3);
    for (const InsertInstance& ins : stream) {
      bool truth = WouldRemainConsistentNaive(state, ins.rel, ins.tuple);
      std::string which = "insert " + ins.tuple.ToString(scheme_.universe()) +
                          " into " + scheme_.relation(ins.rel).name;
      Expect(truth == ins.expected_consistent, "chase/stream-generator",
             "MakeInsertStream mislabeled " + which);
      Expect(WouldRemainConsistent(state, ins.rel, ins.tuple) == truth,
             "chase/maintenance",
             "optimized chase disagrees with exhaustive chase on " + which);
      if (block.has_value()) {
        Expect(block->CheckInsert(ins.rel, ins.tuple).ok() == truth,
               "maintenance/block", "sharded maintainer misjudges " + which);
      }
      if (alg2.has_value()) {
        Expect(alg2->CheckInsert(ins.rel, ins.tuple).ok() == truth,
               "maintenance/alg2", "Algorithm 2 misjudges " + which);
      }
      if (plan.has_value()) {
        Result<PartialTuple> expr = CheckInsertByExpressions(
            scheme_, *plan, state, ins.rel, ins.tuple);
        Expect(expr.ok() == truth, "maintenance/expressions",
               "§3.2 expression lookup misjudges " + which);
      }
      if (alg5.has_value()) {
        Expect(alg5->CheckInsert(ins.rel, ins.tuple).ok() == truth,
               "maintenance/alg5", "Algorithm 5 misjudges " + which);
      }
    }

    if (recognition.accepted) {
      CompareSharded(state, recognition, stream);
    }
  }

  // The stateful front door against truths that share no code with
  // BlockShard. The insert stream is applied for real: each verdict is
  // checked by the exhaustive chase on a flat state that receives every
  // accepted tuple in op order; the materialized shards must equal that
  // flat state byte for byte; the routed total projections must equal the
  // Theorem 4.1 expressions evaluated on it; IsCtm() must equal the naive
  // split test over the blocks (Theorem 5.5); and replaying the accepted
  // ops through InsertBatch (which regroups ops per shard) must accept
  // every op and land on the same state.
  void CompareSharded(const DatabaseState& state,
                      const RecognitionResult& recognition,
                      const std::vector<InsertInstance>& stream) {
    constexpr char kRoutine[] = "maintenance/sharded";
    Result<ShardedMaintainer> sharded_r = ShardedMaintainer::Create(state);
    if (!sharded_r.ok()) {
      Report(kRoutine, "sharded maintainer rejected a consistent state: " +
                           sharded_r.status().ToString());
      return;
    }
    ShardedMaintainer sharded = std::move(sharded_r).value();

    bool ctm = true;
    for (const std::vector<size_t>& block : recognition.partition) {
      if (!IsSplitFreeOracle(scheme_, block)) ctm = false;
    }
    Expect(sharded.IsCtm() == ctm, kRoutine,
           "IsCtm() disagrees with the naive split test over the blocks "
           "(Theorem 5.5)");

    DatabaseState flat = state;
    Expect(StateToString(flat) == StateToString(sharded.Materialize()),
           kRoutine, "initial materialized state differs from the input");
    std::vector<InsertOp> ops;
    for (const InsertInstance& ins : stream) {
      std::string which = "insert " + ins.tuple.ToString(scheme_.universe()) +
                          " into " + scheme_.relation(ins.rel).name;
      bool truth = WouldRemainConsistentNaive(flat, ins.rel, ins.tuple);
      Status verdict = sharded.Insert(ins.rel, ins.tuple);
      Expect(verdict.ok() == truth, kRoutine,
             "sharded verdict disagrees with the exhaustive chase on " +
                 which);
      if (verdict.ok()) {
        flat.mutable_relation(ins.rel).AddUnique(ins.tuple);
        ops.push_back({ins.rel, ins.tuple});
      }
    }
    Expect(StateToString(flat) == StateToString(sharded.Materialize()),
           kRoutine,
           "post-insert materialized state differs from the flat state");

    // Total projections through the shard router vs the expressions
    // evaluated on the flat state.
    std::mt19937_64 rng(options_.seed + 5);
    for (size_t round = 0; round < options_.projection_targets; ++round) {
      AttributeSet x = RandomTarget(rng);
      PartialRelation expected = TotalProjection(flat, recognition, x);
      PartialRelation fanned = sharded.TotalProjection(x);
      Expect(fanned.ToString(scheme_.universe()) ==
                 expected.ToString(scheme_.universe()),
             kRoutine,
             "sharded [" + scheme_.universe().Format(x) +
                 "] differs from the flat-state projection");
    }

    // Batch path: replaying the accepted ops through InsertBatch on a fresh
    // engine must accept every op and land on the same materialized state.
    Result<ShardedMaintainer> batch_r = ShardedMaintainer::Create(state);
    if (!batch_r.ok()) {
      Report(kRoutine, "second sharded engine rejected the initial state: " +
                           batch_r.status().ToString());
      return;
    }
    ShardedMaintainer batch = std::move(batch_r).value();
    std::vector<Status> verdicts = batch.InsertBatch(ops);
    for (size_t i = 0; i < verdicts.size(); ++i) {
      Expect(verdicts[i].ok(), kRoutine,
             "InsertBatch rejected accepted op " + std::to_string(i) + ": " +
                 verdicts[i].ToString());
    }
    Expect(StateToString(batch.Materialize()) ==
               StateToString(sharded.Materialize()),
           kRoutine, "batch-path state differs from the serial sharded path");
  }

  const DatabaseScheme& scheme_;
  const DifferentialOptions& options_;
  std::vector<Disagreement> found_;
};

}  // namespace

std::vector<Disagreement> CompareAgainstOracles(
    const DatabaseScheme& scheme, const DifferentialOptions& options) {
  return Comparator(scheme, options).Run();
}

bool DisagreesOn(const DatabaseScheme& scheme,
                 const DifferentialOptions& options,
                 const std::string& routine) {
  for (const Disagreement& d : CompareAgainstOracles(scheme, options)) {
    if (d.routine == routine) return true;
  }
  return false;
}

}  // namespace ird::oracle
