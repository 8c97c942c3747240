// ird_perfbench: the repository benchmark program (see perfbench/README.md).
//
//   ird_perfbench --workload recognize|insert_large|batch_read --seed N
//                 --seconds S --trace 0|1 [--trace-out FILE]
//
// Every workload is one single-client closed loop over the library's
// public entry points: cold scheme analyses, ShardedMaintainer::Create,
// single Inserts, InsertBatch and TotalProjection. The workloads differ in
// their inputs (scheme population, maintained scheme, state size, job
// count, operation mix), so every end-to-end metric is measured on every
// workload. Inputs come from --seed only; generation and verification run
// outside the timed regions.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs fixed-work
// untraced and traced passes plus per-layer decompositions, keeps spans in
// memory, writes them as a chrome://tracing file at exit and prints the
// per-layer metrics. The last stdout line is always the JSON result.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "core/independence.h"
#include "core/kep.h"
#include "core/recognition.h"
#include "core/sharded_maintainer.h"
#include "core/sharded_state.h"
#include "core/split.h"
#include "core/total_projection.h"
#include "engine/scheme_analysis.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "oracle/naive_kep.h"
#include "oracle/naive_recognition.h"
#include "oracle/naive_split.h"
#include "relation/weak_instance.h"
#include "workload/generators.h"

namespace ird::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Progress on stderr, stamped with seconds since start.
void Log(const char* what) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "[perfbench %8.3fs] %s\n",
               static_cast<double>(NowNs() - start) / 1e9, what);
}

// ---------------------------------------------------------------------------
// Statistics and process probes.

// Nearest-rank quantile (q in [0,1]) of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

// Bytes glibc has handed out and not taken back, arenas and mmapped chunks.
double HeapInUse() {
  struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Spans, recorded by the benchmark around its calls into the library.

class Tracer {
 public:
  struct Record {
    const char* name;
    uint64_t op;         // the root span's index: spans of one op share it
    int64_t parent;      // index of the enclosing span, -1 for roots
    int64_t start_ns;
    int64_t end_ns;
  };

  Tracer() { records_.reserve(1 << 20); }

  size_t Open(const char* name) {
    int64_t parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    uint64_t op = parent < 0 ? records_.size() : records_[parent].op;
    records_.push_back(Record{name, op, parent, NowNs(), 0});
    open_.push_back(records_.size() - 1);
    return records_.size() - 1;
  }
  void Close(size_t index) {
    records_[index].end_ns = NowNs();
    open_.pop_back();
  }

  // Durations (ns) of every closed span named `name`, in record order.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (name == r.name) out.push_back(static_cast<double>(r.end_ns - r.start_ns));
    }
    return out;
  }

  bool WriteChromeTrace(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
    out << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      char line[320];
      std::snprintf(line, sizeof(line),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                    "\"parent\":%lld}}\n",
                    i == 0 ? "" : ",", r.name,
                    static_cast<double>(r.start_ns - origin) / 1e3,
                    static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                    static_cast<unsigned long long>(r.op),
                    static_cast<long long>(r.parent));
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Record> records_;
  std::vector<size_t> open_;
};

// RAII span; a no-op without a tracer (the untraced runs).
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) index_ = tracer_->Open(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  size_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Correctness bookkeeping: every operation is attempted once and fails when
// its outcome disagrees with the independent truth.

class Checker {
 public:
  void Op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 10) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Inputs.

struct SchemeCase {
  DatabaseScheme scheme;
  const char* family;
  bool checked;   // an independent verdict exists
  bool accepted;  // expected Algorithm 6 verdict
  bool ctm;       // expected: accepted and every block split-free
};

struct WorkloadConfig {
  const char* name;
  // Analysis phase: the population to analyze cold, its share of
  // --seconds and its minimum sample count.
  std::function<std::vector<SchemeCase>(std::mt19937_64&)> population;
  double analysis_share;
  size_t min_analyses;
  // Maintenance phase: the maintained scheme, initial entities and one
  // round's operation schedule (steps x (singles, one batch),
  // a query after every `query_every` steps).
  std::function<SchemeCase()> scheme;
  size_t entities;
  size_t steps;
  size_t singles_per_step;
  size_t batch_size;
  size_t query_every;
  // Query attribute sets, as a fixed multiset whose order is seeded.
  std::vector<std::pair<std::vector<const char*>, size_t>> query_mix;
  size_t min_rounds;
  // Query answers verified against the chase per run (round 0).
  size_t checked_queries;
  // Chase only a seeded sample of entities instead of the whole state
  // (states too large to chase within a run's time and memory).
  bool entity_sampled_check;
};

struct Inputs {
  uint64_t seed;
  std::vector<SchemeCase> population;
  SchemeCase maintained;
  DatabaseState base;
  size_t base_tuples = 0;
  std::vector<AttributeSet> query_mix;  // weighted multiset
};

// One round's operations. Rounds cycle through kScheduleVariants seeded
// schedules, so a run samples several placements of the index-growth
// stalls instead of replaying one placement in every round.
constexpr size_t kScheduleVariants = 8;

struct Schedule {
  std::vector<InsertInstance> singles;  // steps * singles_per_step
  std::vector<std::vector<InsertOp>> batches;
  std::vector<std::vector<bool>> batch_expected;
  std::vector<AttributeSet> queries;
  std::vector<bool> query_checked;
};

AttributeId Attr(const DatabaseScheme& scheme, const char* name) {
  Result<AttributeId> id = scheme.universe().Find(name);
  IRD_CHECK_MSG(id.ok(), name);
  return *id;
}

void AddRelation(DatabaseScheme* scheme, const std::string& name,
                 const std::vector<const char*>& attrs,
                 const std::vector<std::vector<const char*>>& keys) {
  Universe& u = *scheme->universe_ptr();
  RelationScheme r;
  r.name = name;
  for (const char* a : attrs) r.attrs.Add(u.Intern(a));
  for (const std::vector<const char*>& key : keys) {
    AttributeSet k;
    for (const char* a : key) k.Add(u.Intern(a));
    r.keys.push_back(k);
  }
  scheme->AddRelation(std::move(r));
}

// The batch_read scheme: a MakeSplitScheme(2)-shaped split block
// (Algorithm 2) plus three 3-cycle chain blocks (Algorithm 5), linked by
// one-way bridges keyed on their left attribute. By construction it is
// independence-reducible with block_split_free = {0,1,1,1}: the split
// block keeps its split key {B1,B2}, every other key is a single
// attribute (never split), and the bridges only add one-way dependencies.
SchemeCase MakeReadScheme() {
  DatabaseScheme s = DatabaseScheme::Create();
  AddRelation(&s, "RAE", {"A", "E"}, {{"A"}, {"E"}});
  AddRelation(&s, "RAB1", {"A", "B1"}, {{"A"}});
  AddRelation(&s, "REB1", {"E", "B1"}, {{"E"}});
  AddRelation(&s, "RAB2", {"A", "B2"}, {{"A"}});
  AddRelation(&s, "REB2", {"E", "B2"}, {{"E"}});
  AddRelation(&s, "RBD", {"B1", "B2", "D"}, {{"B1", "B2"}, {"D"}});
  AddRelation(&s, "RDA", {"D", "A"}, {{"D"}, {"A"}});
  static const char* const kX[3][3] = {{"X0_0", "X0_1", "X0_2"},
                                       {"X1_0", "X1_1", "X1_2"},
                                       {"X2_0", "X2_1", "X2_2"}};
  AddRelation(&s, "BRIDGE_D", {"D", kX[0][0]}, {{"D"}});
  for (int b = 0; b < 3; ++b) {
    for (int j = 0; j < 3; ++j) {
      const char* left = kX[b][j];
      const char* right = kX[b][(j + 1) % 3];
      AddRelation(&s, "C" + std::to_string(b) + "_" + std::to_string(j),
                  {left, right}, {{left}, {right}});
    }
    if (b < 2) {
      AddRelation(&s, "BRIDGE_" + std::to_string(b), {kX[b][1], kX[b + 1][0]},
                  {{kX[b][1]}});
    }
  }
  return SchemeCase{std::move(s), "read", true, true, false};
}

// MakeBlockScheme(4,3): four chain blocks with single-attribute keys, so
// independence-reducible and split-free, hence ctm.
SchemeCase MakeLargeScheme() {
  return SchemeCase{MakeBlockScheme(4, 3), "block", true, true, true};
}

// The recognize population: generator families with documented classes,
// plus random schemes whose verdicts the exhaustive oracle certifies when
// they have at most kOracleRelations relations.
constexpr size_t kOracleRelations = 10;
constexpr size_t kPopulation = 3000;

std::vector<SchemeCase> MakeMixedPopulation(std::mt19937_64& rng) {
  std::vector<SchemeCase> out;
  out.reserve(kPopulation);
  for (size_t i = 0; i < kPopulation; ++i) {
    uint64_t r = rng() % 100;
    if (r < 30) {
      RandomSchemeOptions opt;
      opt.relations = 4 + rng() % 13;
      opt.universe_size = opt.relations + rng() % 4;
      opt.min_arity = 2;
      opt.max_arity = 4;
      opt.multi_key_prob = (rng() % 2) * 0.3;
      opt.seed = rng();
      out.push_back(SchemeCase{MakeRandomScheme(opt), "random", false, false,
                               false});
    } else if (r < 45) {
      size_t blocks = 1 + rng() % 6;
      size_t size = 2 + rng() % 3;
      out.push_back(SchemeCase{MakeBlockScheme(blocks, size), "block", true,
                               true, true});
    } else if (r < 60) {
      size_t nodes = 3 + rng() % 15;
      double bidirectional = static_cast<double>(rng() % 3) / 2.0;
      out.push_back(SchemeCase{MakeTreeScheme(nodes, bidirectional, rng()),
                               "tree", true, true, true});
    } else if (r < 75) {
      out.push_back(SchemeCase{MakeIndependentScheme(2 + rng() % 15),
                               "independent", true, true, true});
    } else if (r < 85) {
      out.push_back(SchemeCase{MakeSplitScheme(2 + rng() % 5), "split", true,
                               true, false});
    } else {
      out.push_back(SchemeCase{MakeStarScheme(2 + rng() % 15), "star", true,
                               true, true});
    }
  }
  // Random schemes: the exhaustive oracle (set-partition enumeration)
  // decides acceptance, and Theorem 5.5 over the oracle's maximal
  // key-equivalent subsets decides ctm.
  for (SchemeCase& c : out) {
    if (c.checked || c.scheme.size() > kOracleRelations) continue;
    c.checked = true;
    c.accepted = oracle::IsIndependenceReducibleOracle(c.scheme);
    c.ctm = c.accepted;
    if (c.accepted) {
      for (const std::vector<size_t>& block :
           oracle::MaximalKeyEquivalentSubsets(c.scheme)) {
        if (!oracle::IsSplitFreeOracle(c.scheme, block)) c.ctm = false;
      }
    }
  }
  return out;
}

const std::vector<WorkloadConfig>& Workloads() {
  using Mix = std::vector<std::pair<std::vector<const char*>, size_t>>;
  // Block-scheme queries: within-block joins and one 2-block query.
  const Mix block_mix = {{{"X1_1", "X1_3"}, 4},
                         {{"X1_2", "X1_3"}, 3},
                         {{"X1_2", "X2_2"}, 3}};
  // Read-scheme queries: within-block, 2-block and 4-block X.
  const Mix read_mix = {{{"X0_0", "X0_2"}, 4},
                        {{"A", "X0_1"}, 3},
                        {{"A", "X2_2"}, 3}};
  auto single = [](SchemeCase (*make)()) {
    return [make](std::mt19937_64&) {
      std::vector<SchemeCase> v;
      v.push_back(make());
      return v;
    };
  };
  static const std::vector<WorkloadConfig> kWorkloads = {
      {"recognize", MakeMixedPopulation, 0.75, 3000, MakeLargeScheme,
       /*entities=*/1500, /*steps=*/100, /*singles=*/30,
       /*batch=*/32, /*query_every=*/2, block_mix, /*min_rounds=*/3,
       /*checked_queries=*/8, /*entity_sampled_check=*/false},
      {"insert_large", single(MakeLargeScheme), 0.15, 1000, MakeLargeScheme,
       /*entities=*/100000, /*steps=*/500, /*singles=*/200,
       /*batch=*/16, /*query_every=*/60, block_mix, /*min_rounds=*/3,
       /*checked_queries=*/2, /*entity_sampled_check=*/true},
      {"batch_read", single(MakeReadScheme), 0.15, 1000, MakeReadScheme,
       /*entities=*/700, /*steps=*/100, /*singles=*/20,
       /*batch=*/32, /*query_every=*/2, read_mix, /*min_rounds=*/3,
       /*checked_queries=*/4, /*entity_sampled_check=*/false},
  };
  return kWorkloads;
}

Inputs MakeInputs(const WorkloadConfig& cfg, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 17);
  Inputs in{seed, cfg.population(rng), cfg.scheme(),
            DatabaseState(DatabaseScheme::Create())};
  StateGenOptions gen;
  gen.entities = cfg.entities;
  gen.seed = rng();
  in.base = MakeConsistentState(in.maintained.scheme, gen);
  in.base_tuples = in.base.TupleCount();
  for (const auto& [names, weight] : cfg.query_mix) {
    AttributeSet x;
    for (const char* n : names) x.Add(Attr(in.maintained.scheme, n));
    for (size_t w = 0; w < weight; ++w) in.query_mix.push_back(x);
  }
  return in;
}

Schedule MakeSchedule(const WorkloadConfig& cfg, const Inputs& in,
                      size_t variant) {
  std::mt19937_64 rng((in.seed + 1) * 0xbf58476d1ce4e5b9ull + variant);
  Schedule sch;
  size_t per_step = cfg.singles_per_step + cfg.batch_size;
  std::vector<InsertInstance> stream =
      MakeInsertStream(in.maintained.scheme, in.base, cfg.steps * per_step,
                       0.25, rng());
  for (size_t step = 0; step < cfg.steps; ++step) {
    size_t at = step * per_step;
    for (size_t k = 0; k < cfg.singles_per_step; ++k) {
      sch.singles.push_back(std::move(stream[at + k]));
    }
    std::vector<InsertOp> ops;
    std::vector<bool> expected;
    for (size_t k = cfg.singles_per_step; k < per_step; ++k) {
      ops.push_back(InsertOp{stream[at + k].rel, stream[at + k].tuple});
      expected.push_back(stream[at + k].expected_consistent);
    }
    sch.batches.push_back(std::move(ops));
    sch.batch_expected.push_back(std::move(expected));
  }
  std::vector<AttributeSet> mix = in.query_mix;
  size_t query_count = cfg.steps / cfg.query_every;
  while (sch.queries.size() < query_count) {
    std::shuffle(mix.begin(), mix.end(), rng);
    for (const AttributeSet& x : mix) {
      if (sch.queries.size() < query_count) sch.queries.push_back(x);
    }
  }
  sch.query_checked.assign(query_count, false);
  for (size_t k = 0; k < std::min(cfg.checked_queries, query_count); ++k) {
    sch.query_checked[rng() % query_count] = true;
  }
  return sch;
}

// ---------------------------------------------------------------------------
// The measured operations.

// A fixed CPU-and-cache kernel outside the library (hash-map build and
// probe, sort), timed throughout a run. Its median is reported next to the
// metrics, not applied to them: it moves with the machine, not with the
// code under test, so it tells a host slowdown from a regression.
class SpeedProbe {
 public:
  SpeedProbe() {
    std::mt19937_64 rng(42);
    keys_.resize(1024);
    for (uint64_t& k : keys_) k = rng();
  }
  void Sample() {
    int64_t t0 = NowNs();
    std::unordered_map<uint64_t, uint64_t> map;
    for (uint64_t k : keys_) map[k >> 3] += k;
    std::vector<uint64_t> sorted = keys_;
    std::sort(sorted.begin(), sorted.end());
    uint64_t hits = 0;
    for (uint64_t k : sorted) hits += map.count(k >> 4);
    sink_ += hits + sorted[sorted.size() / 2];
    samples_.push_back(static_cast<double>(NowNs() - t0));
  }
  double MedianNs() const { return Quantile(samples_, 0.5); }

 private:
  std::vector<uint64_t> keys_;
  std::vector<double> samples_;
  uint64_t sink_ = 0;
};

struct Measurements {
  SpeedProbe speed;
  std::vector<double> analyze_ns;
  std::vector<double> setup_s;
  std::vector<double> insert_ns;
  std::vector<double> batch_ns;
  std::vector<double> query_ns;
  std::vector<double> bytes_per_tuple;
  double batch_ops = 0;
  // Verdict and size tallies, for the determinism record.
  uint64_t accepted_schemes = 0;
  uint64_t ctm_schemes = 0;
  uint64_t accepted_inserts = 0;
  uint64_t rejected_inserts = 0;
  uint64_t final_tuples = 0;
  uint64_t answer_rows = 0;

  // Time in the measured operations, set-up excluded (it holds one span
  // and is dominated by allocation, so it would only add noise).
  double OpNs() const {
    return Sum(analyze_ns) + Sum(insert_ns) + Sum(batch_ns) + Sum(query_ns);
  }
};

// One cold analysis: a fresh SchemeAnalysis, Algorithm 6, then SplitKeys on
// every accepted block. Returns the elapsed ns.
double AnalyzeOnce(const SchemeCase& c, Tracer* tracer, Checker* checker,
                   Measurements* m) {
  bool accepted = false;
  bool ctm = false;
  int64_t t0 = NowNs();
  {
    Span op(tracer, "analyze");
    SchemeAnalysis analysis(c.scheme);
    RecognitionResult result;
    {
      Span s(tracer, "core.RecognizeIndependenceReducible");
      result = RecognizeIndependenceReducible(analysis);
    }
    accepted = result.accepted;
    ctm = accepted;
    if (accepted) {
      Span s(tracer, "core.SplitKeys");
      for (const std::vector<size_t>& block : result.partition) {
        if (!SplitKeys(analysis, block).empty()) ctm = false;
      }
    }
  }
  double ns = static_cast<double>(NowNs() - t0);
  m->accepted_schemes += accepted;
  m->ctm_schemes += ctm;
  checker->Op(!c.checked || (accepted == c.accepted && ctm == c.ctm),
              std::string("verdict on ") + c.family + " scheme");
  return ns;
}

// Analyses over the population, cycling from *cursor, until at least
// `count` are done and `budget_s` seconds have passed.
void RunAnalyses(const Inputs& in, size_t* cursor, size_t count,
                 double budget_s, Tracer* tracer, Checker* checker,
                 Measurements* m) {
  int64_t start = NowNs();
  for (size_t i = 0;
       i < count || static_cast<double>(NowNs() - start) / 1e9 < budget_s;
       ++i, ++*cursor) {
    const SchemeCase& c = in.population[*cursor % in.population.size()];
    if (i % 256 == 0) m->speed.Sample();
    m->analyze_ns.push_back(AnalyzeOnce(c, tracer, checker, m));
  }
}

// Set equality of two relations whose rows are all total on their
// attributes, by sorting the rows (PartialRelation::SetEquals scans a
// relation linearly per probed row, quadratic on large answers).
bool SameRows(const PartialRelation& a, const PartialRelation& b) {
  if (a.attrs() != b.attrs()) return false;
  auto rows = [](const PartialRelation& r,
                 std::vector<std::vector<Value>>* out) {
    for (const PartialTuple& t : r.tuples()) {
      if (t.attrs() != r.attrs()) return false;
      out->push_back(t.values());
    }
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
    return true;
  };
  std::vector<std::vector<Value>> ra;
  std::vector<std::vector<Value>> rb;
  return rows(a, &ra) && rows(b, &rb) && ra == rb;
}

// The generators give every (entity, attribute) pair its own value,
// entity * |U| + attribute + 1 (MakeConsistentState, MakeInsertStream), so
// no two entities share a value and the chase of a state is the union of
// the chases of its entities. This checks `answer` on a seeded sample of
// entities: per entity, its answer rows must equal TotalProjectionByChase
// of that entity's tuples alone.
bool EntitySampledChaseCheck(const DatabaseState& state, const AttributeSet& x,
                             const PartialRelation& answer, size_t sample,
                             uint64_t seed) {
  const size_t u = state.universe().size();
  auto entity_of = [u](const PartialTuple& t) {
    AttributeId first = t.attrs().First();
    return static_cast<uint64_t>(t.At(first) - 1 - first) / u;
  };
  std::vector<uint64_t> entities;
  for (const PartialRelation& rel : state.relations()) {
    for (const PartialTuple& t : rel.tuples()) entities.push_back(entity_of(t));
  }
  std::sort(entities.begin(), entities.end());
  entities.erase(std::unique(entities.begin(), entities.end()), entities.end());
  std::mt19937_64 rng(seed);
  std::shuffle(entities.begin(), entities.end(), rng);
  entities.resize(std::min(sample, entities.size()));
  std::sort(entities.begin(), entities.end());
  auto sampled = [&](uint64_t e) {
    return std::binary_search(entities.begin(), entities.end(), e);
  };
  std::map<uint64_t, DatabaseState> parts;
  for (size_t r = 0; r < state.relation_count(); ++r) {
    for (const PartialTuple& t : state.relation(r).tuples()) {
      uint64_t e = entity_of(t);
      if (!sampled(e)) continue;
      auto it = parts.try_emplace(e, state.scheme()).first;
      it->second.mutable_relation(r).Add(t);
    }
  }
  PartialRelation expected(x);
  for (const auto& [e, part] : parts) {
    Result<PartialRelation> chased = TotalProjectionByChase(part, x);
    if (!chased.ok()) return false;
    for (const PartialTuple& t : chased->tuples()) expected.Add(t);
  }
  PartialRelation actual(x);
  for (const PartialTuple& t : answer.tuples()) {
    if (sampled(entity_of(t))) actual.Add(t);
  }
  return SameRows(actual, expected);
}

// Every maintainer runs its InsertBatch pool at one job. With more,
// back-to-back batches crash intermittently: a BatchAnalyzer worker that
// wakes after ForEachIndex has returned reads the reset (null) fn_ and can
// claim an index of the next batch (src/engine/batch.cc). Raise this, and
// measure the pool's speedup, once that is fixed.
constexpr size_t kJobs = 1;

bool InsertVerdictOk(const Status& s, bool expected) {
  if (s.ok()) return expected;
  return !expected && s.code() == StatusCode::kInconsistent;
}

// One maintenance round on a fresh maintainer: Create, the schedule of
// single inserts, batches and queries, then the footprint. With
// `check_queries`, the sampled query answers are compared with the chase.
void RunRound(const WorkloadConfig& cfg, const Inputs& in,
              const Schedule& sch, bool check_queries,
              Tracer* tracer, Checker* checker, Measurements* m) {
  DatabaseState copy = in.base;
  std::optional<ShardedMaintainer> maint;
  {
    int64_t t0 = NowNs();
    Result<ShardedMaintainer> made = [&] {
      Span op(tracer, "setup");
      Span s(tracer, "core.ShardedMaintainer::Create");
      return ShardedMaintainer::Create(std::move(copy), kJobs, true);
    }();
    double seconds = static_cast<double>(NowNs() - t0) / 1e9;
    checker->Op(made.ok(), "ShardedMaintainer::Create");
    if (!made.ok()) return;
    m->setup_s.push_back(seconds);
    maint.emplace(std::move(made).value());
  }
  checker->Op(maint->IsCtm() == in.maintained.ctm, "maintainer ctm verdict");
  uint64_t accepted = 0;
  size_t single = 0;
  size_t query = 0;
  for (size_t step = 0; step < cfg.steps; ++step) {
    if (step % 20 == 0) m->speed.Sample();
    for (size_t k = 0; k < cfg.singles_per_step; ++k, ++single) {
      const InsertInstance& ins = sch.singles[single];
      int64_t t0 = NowNs();
      Status st = [&] {
        Span op(tracer, "insert");
        Span s(tracer, "core.ShardedMaintainer::Insert");
        return maint->Insert(ins.rel, ins.tuple);
      }();
      m->insert_ns.push_back(static_cast<double>(NowNs() - t0));
      accepted += st.ok();
      checker->Op(InsertVerdictOk(st, ins.expected_consistent),
                  "single insert verdict");
    }
    {
      const std::vector<InsertOp>& ops = sch.batches[step];
      int64_t t0 = NowNs();
      std::vector<Status> verdicts = [&] {
        Span op(tracer, "batch");
        Span s(tracer, "core.ShardedMaintainer::InsertBatch");
        return maint->InsertBatch(ops);
      }();
      m->batch_ns.push_back(static_cast<double>(NowNs() - t0));
      m->batch_ops += static_cast<double>(ops.size());
      for (size_t i = 0; i < ops.size(); ++i) {
        bool ok = i < verdicts.size() &&
                  InsertVerdictOk(verdicts[i], sch.batch_expected[step][i]);
        accepted += i < verdicts.size() && verdicts[i].ok();
        checker->Op(ok, "batched insert verdict");
      }
    }
    if ((step + 1) % cfg.query_every == 0 && query < sch.queries.size()) {
      const AttributeSet& x = sch.queries[query];
      int64_t t0 = NowNs();
      PartialRelation answer = [&] {
        Span op(tracer, "query");
        Span s(tracer, "core.ShardedMaintainer::TotalProjection");
        return maint->TotalProjection(x);
      }();
      m->query_ns.push_back(static_cast<double>(NowNs() - t0));
      m->answer_rows += answer.size();
      bool ok = answer.attrs() == x;
      if (check_queries && sch.query_checked[query]) {
        Log("checking a query answer against the chase");
        DatabaseState state = maint->Materialize();
        if (cfg.entity_sampled_check) {
          ok = ok && EntitySampledChaseCheck(state, x, answer, 2000,
                                             query + in.base_tuples);
        } else {
          Result<PartialRelation> truth = TotalProjectionByChase(state, x);
          ok = ok && truth.ok() && SameRows(*truth, answer);
        }
      }
      if (check_queries && sch.query_checked[query]) Log("checked");
      checker->Op(ok, "total projection answer");
      ++query;
    }
  }
  uint64_t tuples = maint->sharded_state().TupleCount();
  checker->Op(tuples == in.base_tuples + accepted,
              "tuple count = initial + accepted inserts");
  m->accepted_inserts += accepted;
  m->rejected_inserts += cfg.steps * (cfg.singles_per_step + cfg.batch_size) -
                         accepted;
  m->final_tuples = tuples;
  double alive = HeapInUse();
  maint.reset();
  m->bytes_per_tuple.push_back((alive - HeapInUse()) /
                               static_cast<double>(tuples));
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Checker& checker, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checker.failed() == 0 && checker.attempted() > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checker.attempted());
  out += ", \"failed\": " + std::to_string(checker.failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& mt = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + mt.name + "\": {\"value\": " + JsonNumber(mt.value) +
           ", \"unit\": \"" + mt.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end run.

std::vector<Metric> RunEndToEnd(const WorkloadConfig& cfg, const Inputs& in,
                                double seconds, Checker* checker,
                                std::string* samples) {
  Measurements m;
  int64_t start = NowNs();
  size_t cursor = 0;
  // Rounds alternate with analysis slices sized so that analyses take
  // `analysis_share` of the run: every metric then samples the whole run
  // window, not one stretch of it. A slice runs once at least 0.25 s are
  // owed, so the few analyses slowed by the caches a round's teardown
  // leaves cold stay far below 1% of the analyses.
  double owed_s = 0;
  for (size_t round = 0;; ++round) {
    bool done = round >= cfg.min_rounds &&
                static_cast<double>(NowNs() - start) / 1e9 >= seconds;
    if (done) break;
    Schedule sch = MakeSchedule(cfg, in, round % kScheduleVariants);
    Log("round");
    int64_t r0 = NowNs();
    RunRound(cfg, in, sch, round == 0, nullptr, checker, &m);
    if (m.setup_s.size() <= round) break;  // Create failed
    double round_s = static_cast<double>(NowNs() - r0) / 1e9;
    owed_s += round_s * cfg.analysis_share / (1 - cfg.analysis_share);
    if (owed_s >= 0.25) {
      RunAnalyses(in, &cursor, 0, owed_s, nullptr, checker, &m);
      owed_s = 0;
    }
  }
  if (m.analyze_ns.size() < cfg.min_analyses) {
    RunAnalyses(in, &cursor, cfg.min_analyses - m.analyze_ns.size(), 0,
                nullptr, checker, &m);
  }
  *samples = "{\"rounds\": " + std::to_string(m.setup_s.size()) +
             ", \"analyses\": " + std::to_string(m.analyze_ns.size()) +
             ", \"inserts\": " + std::to_string(m.insert_ns.size()) +
             ", \"batches\": " + std::to_string(m.batch_ns.size()) +
             ", \"queries\": " + std::to_string(m.query_ns.size()) +
             ", \"speed_ns\": " + JsonNumber(m.speed.MedianNs()) + "}";
  double write_ns = Sum(m.insert_ns) + Sum(m.batch_ns);
  double writes = static_cast<double>(m.insert_ns.size()) + m.batch_ops;
  return {
      {"setup_s", Quantile(m.setup_s, 0.5), "s"},
      {"analyze_p50_us", Quantile(m.analyze_ns, 0.5) / 1e3, "us"},
      {"analyze_p99_us", Quantile(m.analyze_ns, 0.99) / 1e3, "us"},
      {"schemes_per_s",
       static_cast<double>(m.analyze_ns.size()) / (Sum(m.analyze_ns) / 1e9),
       "1/s"},
      {"insert_p50_ns", Quantile(m.insert_ns, 0.5), "ns"},
      {"insert_p99_ns", Quantile(m.insert_ns, 0.99), "ns"},
      {"insert_p999_ns", Quantile(m.insert_ns, 0.999), "ns"},
      {"inserts_per_s", writes / (write_ns / 1e9), "1/s"},
      {"bytes_per_tuple", Quantile(m.bytes_per_tuple, 0.5), "B"},
      {"batch_p50_us", Quantile(m.batch_ns, 0.5) / 1e3, "us"},
      {"batch_p99_us", Quantile(m.batch_ns, 0.99) / 1e3, "us"},
      {"query_p50_ms", Quantile(m.query_ns, 0.5) / 1e6, "ms"},
      {"query_p90_ms", Quantile(m.query_ns, 0.9) / 1e6, "ms"},
  };
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

uint64_t CounterOf(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

double HistQuantileOf(const obs::Snapshot& snap, const std::string& name,
                      double q) {
  for (const obs::HistogramRegistry::Stat& h : snap.hists) {
    if (h.name == name) return obs::HistogramQuantile(h, q);
  }
  return 0;
}

// The obs work counters of a snapshot (timing histograms and spans
// excluded), for the determinism record.
std::string CounterRecord(const obs::Snapshot& snap) {
  std::string out = "{";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + snap.counters[i].first +
           "\":" + std::to_string(snap.counters[i].second);
  }
  return out + "}";
}

double PerOp(double total, double ops) { return ops > 0 ? total / ops : 0; }

std::vector<Metric> RunLayers(const WorkloadConfig& cfg, const Inputs& in,
                              Tracer* tracer, Checker* checker,
                              std::string* work_record) {
  std::vector<Metric> out;
  size_t analyses = std::max(cfg.min_analyses, in.population.size());

  // Fixed-work untraced pass, then the same work traced: the difference is
  // the tracing overhead (spans plus ObsContext attribution).
  const Schedule sch = MakeSchedule(cfg, in, 0);
  Measurements plain;
  size_t cursor = 0;
  Log("untraced analyses");
  RunAnalyses(in, &cursor, analyses, 0, nullptr, checker, &plain);
  Log("untraced round");
  RunRound(cfg, in, sch, false, nullptr, checker, &plain);
  Log("traced analyses");
  Measurements traced;
  obs::Snapshot analysis_snap;
  {
    obs::ObsContext ctx("analysis");
    cursor = 0;
    RunAnalyses(in, &cursor, analyses, 0, tracer, checker, &traced);
    analysis_snap = obs::ContextSnapshot(ctx);
  }
  obs::Snapshot round_snap;
  Log("traced round");
  {
    obs::ObsContext ctx("round");
    RunRound(cfg, in, sch, true, tracer, checker, &traced);
    round_snap = obs::ContextSnapshot(ctx);
  }
  double overhead_pct = 100.0 * (traced.OpNs() / plain.OpNs() - 1.0);

  Log("analysis stages");
  // Analysis stages, one cold pass with each pipeline step timed alone.
  double n = static_cast<double>(analyses);
  for (size_t i = 0; i < analyses; ++i) {
    const SchemeCase& c = in.population[i % in.population.size()];
    Span op(tracer, "analyze.stages");
    SchemeAnalysis analysis(c.scheme);
    std::vector<std::vector<size_t>> partition;
    {
      Span s(tracer, "core.KeyEquivalentPartition");
      partition = KeyEquivalentPartition(analysis);
    }
    std::optional<DatabaseScheme> induced;
    {
      Span s(tracer, "core.InducedScheme");
      induced.emplace(InducedScheme(c.scheme, partition));
    }
    bool independent = false;
    {
      Span s(tracer, "core.IsIndependent");
      independent = IsIndependent(*induced);
    }
    if (independent) {
      Span s(tracer, "core.SplitKeys.stage");
      for (const std::vector<size_t>& block : partition) {
        (void)SplitKeys(analysis, block);
      }
    }
  }
  auto mean_us = [&](const char* span) {
    return Sum(tracer->Durations(span)) / n / 1e3;
  };
  double hits = static_cast<double>(
      CounterOf(analysis_snap, "engine.closure_memo.hits"));
  double misses = static_cast<double>(
      CounterOf(analysis_snap, "engine.closure_memo.misses"));
  auto per_analysis = [&](const char* counter) {
    return static_cast<double>(CounterOf(analysis_snap, counter)) / n;
  };
  out.push_back({"core.kep_us", mean_us("core.KeyEquivalentPartition"), "us"});
  out.push_back({"core.induced_us", mean_us("core.InducedScheme"), "us"});
  out.push_back({"core.independence_us", mean_us("core.IsIndependent"), "us"});
  out.push_back({"core.split_us", mean_us("core.SplitKeys.stage"), "us"});
  out.push_back({"fd.closure_computations",
                 per_analysis("closure.computations"), "count"});
  out.push_back({"fd.closure_iterations", per_analysis("closure.iterations"),
                 "count"});
  out.push_back({"engine.closure_engine_builds",
                 per_analysis("engine.closure_engine.builds"), "count"});
  out.push_back({"engine.closure_memo_hit_ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0, "ratio"});
  out.push_back({"core.kep_rounds", per_analysis("kep.rounds"), "count"});
  out.push_back({"core.independence_tests",
                 per_analysis("recognition.independence_tests"), "count"});
  out.push_back({"core.split_cover_checks",
                 per_analysis("split.cover_checks"), "count"});

  Log("set-up stages");
  // Set-up split: recognition alone, the unverified shard build, and the
  // verification (Algorithm 1 chase) delta.
  std::vector<double> recognize_ns;
  for (int rep = 0; rep < 5; ++rep) {
    Span op(tracer, "setup.recognize");
    int64_t t0 = NowNs();
    {
      Span s(tracer, "core.RecognizeIndependenceReducible");
      SchemeAnalysis analysis(in.maintained.scheme);
      (void)RecognizeIndependenceReducible(analysis);
    }
    recognize_ns.push_back(static_cast<double>(NowNs() - t0));
  }
  double verified_s = 0;
  obs::Snapshot verify_snap;
  {
    DatabaseState copy = in.base;
    obs::ObsContext ctx("verify");
    Span op(tracer, "setup.verified");
    int64_t t0 = NowNs();
    Result<ShardedState> verified = [&] {
      Span s(tracer, "core.ShardedState::Create(verify)");
      return ShardedState::Create(std::move(copy), true);
    }();
    verified_s = static_cast<double>(NowNs() - t0) / 1e9;
    checker->Op(verified.ok(), "ShardedState::Create(verify)");
    verify_snap = obs::ContextSnapshot(ctx);
  }

  // Shard build without verification, then the single-insert stream driven
  // through ShardedState + BlockShard so routing, validation and apply are
  // timed apart. The footprint of the shard state and of its materialized
  // DatabaseState splits bytes per tuple into state and index.
  double heap0 = HeapInUse();
  DatabaseState copy = in.base;
  int64_t t0 = NowNs();
  Result<ShardedState> built = [&] {
    Span op(tracer, "setup.unverified");
    Span s(tracer, "core.ShardedState::Create");
    return ShardedState::Create(std::move(copy), false);
  }();
  double build_s = static_cast<double>(NowNs() - t0) / 1e9;
  checker->Op(built.ok(), "ShardedState::Create");
  if (!built.ok()) return out;
  ShardedState& ss = *built;
  obs::Snapshot insert_snap;
  uint64_t rejected = 0;
  Log("insert stages");
  {
    obs::ObsContext ctx("inserts");
    for (const InsertInstance& ins : sch.singles) {
      Span op(tracer, "insert.stages");
      size_t block = 0;
      {
        Span s(tracer, "core.BlockOf");
        block = ss.BlockOf(ins.rel);
      }
      Result<PartialTuple> q = [&] {
        Span s(tracer, "core.BlockShard::CheckInsert");
        return ss.shard(block).CheckInsert(ins.rel, ins.tuple);
      }();
      Status st = q.status();
      if (q.ok()) {
        Span s(tracer, "core.BlockShard::Apply");
        st = ss.mutable_shard(block).Apply(ins.rel, ins.tuple);
      }
      rejected += !q.ok();
      checker->Op(InsertVerdictOk(st, ins.expected_consistent),
                  "decomposed insert verdict");
    }
    insert_snap = obs::ContextSnapshot(ctx);
  }
  // Routing is a vector lookup, far below the span clock's resolution; time
  // it as a tight loop over the same stream.
  double route_ns = 0;
  {
    size_t sink = 0;
    int64_t r0 = NowNs();
    for (int rep = 0; rep < 20; ++rep) {
      for (const InsertInstance& ins : sch.singles) sink += ss.BlockOf(ins.rel);
    }
    route_ns = static_cast<double>(NowNs() - r0) /
               (20.0 * static_cast<double>(sch.singles.size()));
    if (sink == SIZE_MAX) std::fprintf(stderr, "unreachable\n");
  }
  double singles = static_cast<double>(sch.singles.size());
  std::vector<double> check_ns = tracer->Durations("core.BlockShard::CheckInsert");
  std::vector<double> apply_ns = tracer->Durations("core.BlockShard::Apply");
  out.push_back({"core.route_ns", route_ns, "ns"});
  out.push_back({"core.check_ns_p50", Quantile(check_ns, 0.5), "ns"});
  out.push_back({"core.check_ns_p99", Quantile(check_ns, 0.99), "ns"});
  out.push_back({"core.apply_ns_p50", Quantile(apply_ns, 0.5), "ns"});
  out.push_back({"core.apply_ns_p99", Quantile(apply_ns, 0.99), "ns"});
  out.push_back(
      {"core.alg5_probes_per_insert",
       PerOp(static_cast<double>(CounterOf(insert_snap, "maintain.alg5.probes")),
             singles),
       "count"});
  out.push_back({"core.reject_share",
                 PerOp(static_cast<double>(rejected), singles), "ratio"});

  Log("footprint");
  double tuples = static_cast<double>(ss.TupleCount());
  double shard_bytes = HeapInUse() - heap0;
  std::vector<double> materialize_ns;
  std::optional<DatabaseState> mat;
  for (int rep = 0; rep < 3; ++rep) {
    mat.reset();
    double before = HeapInUse();
    Span op(tracer, "materialize");
    int64_t m0 = NowNs();
    {
      Span s(tracer, "relation.Materialize");
      mat.emplace(ss.Materialize());
    }
    materialize_ns.push_back(static_cast<double>(NowNs() - m0));
    if (rep == 2) {
      double state_bytes = HeapInUse() - before;
      out.push_back({"relation.state_bytes_per_tuple", state_bytes / tuples,
                     "B"});
      out.push_back({"core.index_bytes_per_tuple",
                     (shard_bytes - state_bytes) / tuples, "B"});
    }
  }

  out.push_back({"core.recognize_ms", Quantile(recognize_ns, 0.5) / 1e6, "ms"});
  out.push_back({"core.shard_build_s", build_s, "s"});
  out.push_back({"tableau.verify_s", verified_s - build_s, "s"});
  out.push_back({"tableau.chase_seed_probes",
                 static_cast<double>(CounterOf(verify_snap, "chase.seed_probes")),
                 "count"});
  out.push_back({"tableau.chase_equates",
                 static_cast<double>(CounterOf(verify_snap, "chase.equates")),
                 "count"});

  // Batches: the traced round's pool counters and shard-slice latency.
  double batch_ops = traced.batch_ops;
  double all_inserts = static_cast<double>(traced.insert_ns.size()) + batch_ops;
  out.push_back({"core.shard_validate_ns_p50",
                 HistQuantileOf(round_snap, "shard.validate_ns", 0.5), "ns"});
  out.push_back({"core.shard_validate_ns_p99",
                 HistQuantileOf(round_snap, "shard.validate_ns", 0.99), "ns"});
  out.push_back(
      {"engine.batch_tasks",
       PerOp(static_cast<double>(CounterOf(round_snap, "engine.batch.tasks")),
             static_cast<double>(traced.batch_ns.size())),
       "count"});
  out.push_back(
      {"core.alg2_lookups_per_insert",
       PerOp(static_cast<double>(CounterOf(round_snap, "maintain.alg2.lookups")),
             all_inserts),
       "count"});

  // Queries: cold plan compilation per distinct X, algebra evaluation on the
  // materialized state, and the shard-routed read minus that evaluation.
  Log("query stages");
  std::vector<AttributeSet> distinct;
  for (const AttributeSet& x : sch.queries) {
    if (std::find(distinct.begin(), distinct.end(), x) == distinct.end()) {
      distinct.push_back(x);
    }
  }
  std::vector<double> plan_ns;
  double expr_nodes = 0;
  std::vector<double> eval_ns;
  std::vector<double> route_ms;
  for (int rep = 0; rep < 3; ++rep) {
    for (const AttributeSet& x : distinct) {
      Span op(tracer, "query.stages");
      int64_t p0 = NowNs();
      ExprPtr plan = [&] {
        Span s(tracer, "core.BuildBoundedProjectionExpr");
        return BuildBoundedProjectionExpr(ss.scheme(), ss.recognition(), x);
      }();
      plan_ns.push_back(static_cast<double>(NowNs() - p0));
      if (plan == nullptr) continue;
      if (rep == 0) expr_nodes += static_cast<double>(plan->NodeCount());
      int64_t e0 = NowNs();
      PartialRelation evaluated = [&] {
        Span s(tracer, "algebra.Evaluate");
        return Evaluate(*plan, *mat);
      }();
      double eval = static_cast<double>(NowNs() - e0);
      int64_t r0 = NowNs();
      PartialRelation routed = [&] {
        Span s(tracer, "core.ShardedState::TotalProjection");
        return ss.TotalProjection(x);
      }();
      double route = static_cast<double>(NowNs() - r0);
      eval_ns.push_back(eval);
      route_ms.push_back((route - eval) / 1e6);
      checker->Op(SameRows(routed, evaluated), "routed vs materialized answer");
    }
  }
  out.push_back({"core.plan_us", Sum(plan_ns) / static_cast<double>(plan_ns.size()) / 1e3, "us"});
  out.push_back({"algebra.eval_ms_p50", Quantile(eval_ns, 0.5) / 1e6, "ms"});
  out.push_back({"core.route_ms_p50", Quantile(route_ms, 0.5), "ms"});
  out.push_back({"relation.materialize_ms", Quantile(materialize_ns, 0.5) / 1e6,
                 "ms"});
  out.push_back({"algebra.expr_nodes", expr_nodes, "count"});
  out.push_back({"core.cross_block_queries",
                 static_cast<double>(
                     CounterOf(round_snap, "shard.cross_block_queries")),
                 "count"});
  out.push_back({"trace.overhead_pct", overhead_pct, "%"});
  out.push_back({"op_error_share",
                 PerOp(static_cast<double>(checker->failed()),
                       static_cast<double>(checker->attempted())),
                 "ratio"});

  // Everything here is fixed work on seeded inputs, so two runs on one seed
  // must print the same record.
  *work_record =
      "{\"schemes_analyzed\":" + std::to_string(analyses) +
      ",\"schemes_accepted\":" + std::to_string(traced.accepted_schemes) +
      ",\"schemes_ctm\":" + std::to_string(traced.ctm_schemes) +
      ",\"inserts_accepted\":" + std::to_string(traced.accepted_inserts) +
      ",\"inserts_rejected\":" + std::to_string(traced.rejected_inserts) +
      ",\"final_tuples\":" + std::to_string(traced.final_tuples) +
      ",\"answer_rows\":" + std::to_string(traced.answer_rows) +
      ",\"decomposed_rejects\":" + std::to_string(rejected) +
      ",\"expr_nodes\":" + JsonNumber(expr_nodes) +
      ",\"analysis_counters\":" + CounterRecord(analysis_snap) +
      ",\"round_counters\":" + CounterRecord(round_snap) +
      ",\"verify_counters\":" + CounterRecord(verify_snap) +
      ",\"insert_counters\":" + CounterRecord(insert_snap) + "}";
  return out;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: ird_perfbench --workload "
               "recognize|insert_large|batch_read --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(seconds > 0)) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || seconds <= 0 || trace < 0) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  const WorkloadConfig* cfg = nullptr;
  for (const WorkloadConfig& w : Workloads()) {
    if (workload == w.name) cfg = &w;
  }
  if (cfg == nullptr) return Usage(("unknown workload " + workload).c_str());

  int64_t wall0 = NowNs();
  Log("generating inputs");
  Checker checker;
  Inputs in = MakeInputs(*cfg, seed);
  checker.Op(in.maintained.scheme.Validate().ok(), "maintained scheme valid");
  {
    // The maintained scheme's class, from the classifier, against its
    // construction (no γ-cycle search: recognize never calls
    // ClassifyScheme(..., true)).
    SchemeClassification c = ClassifyScheme(in.maintained.scheme, false);
    bool expected_blocks = true;
    if (std::string(cfg->name) == "batch_read") {
      expected_blocks =
          c.block_split_free == std::vector<bool>{false, true, true, true};
    }
    checker.Op(c.independence_reducible == in.maintained.accepted &&
                   c.ctm == in.maintained.ctm && expected_blocks,
               "maintained scheme classification");
  }
  double gen_s = static_cast<double>(NowNs() - wall0) / 1e9;

  std::vector<Metric> metrics;
  std::string work_record;
  std::string samples = "{}";
  Tracer tracer;
  if (trace == 1) {
    metrics = RunLayers(*cfg, in, &tracer, &checker, &work_record);
  } else {
    metrics = RunEndToEnd(*cfg, in, seconds, &checker, &samples);
  }
  if (trace == 1 && !trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "warning: could not write %s\n", trace_out.c_str());
  }
  size_t checked = 0;
  for (const SchemeCase& c : in.population) checked += c.checked;
  std::printf(
      "{\"resources\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"wall_s\": %.3f, \"input_gen_s\": %.3f, \"peak_rss_mb\": %.1f, "
      "\"population\": %zu, \"population_checked\": %zu, "
      "\"initial_tuples\": %zu, \"samples\": %s}}\n",
      cfg->name, static_cast<unsigned long long>(seed), trace,
      static_cast<double>(NowNs() - wall0) / 1e9, gen_s, PeakRssMb(),
      in.population.size(), checked, in.base_tuples, samples.c_str());
  if (!work_record.empty()) std::printf("{\"work\": %s}\n", work_record.c_str());
  PrintResult(checker, metrics);
  return checker.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace ird::perfbench

int main(int argc, char** argv) { return ird::perfbench::Main(argc, argv); }
