#include "core/sharded_maintainer.h"

#include "base/mutex.h"
#include "obs/obs.h"

namespace ird {

Result<ShardedMaintainer> ShardedMaintainer::Create(DatabaseState state,
                                                    size_t jobs,
                                                    bool verify_consistency) {
  Result<ShardedState> sharded =
      ShardedState::Create(std::move(state), verify_consistency);
  if (!sharded.ok()) return sharded.status();
  return ShardedMaintainer(std::move(sharded).value(), jobs);
}

Result<PartialTuple> ShardedMaintainer::CheckInsert(
    size_t rel, const PartialTuple& tuple) const {
  return state_.shard(state_.BlockOf(rel)).CheckInsert(rel, tuple);
}

Status ShardedMaintainer::Insert(size_t rel, const PartialTuple& tuple) {
  return state_.mutable_shard(state_.BlockOf(rel)).Insert(rel, tuple);
}

std::vector<Status> ShardedMaintainer::InsertBatch(
    const std::vector<InsertOp>& ops) {
  IRD_SPAN("shard.batch");
  MutexLock batch_lock(*batch_mu_);
  std::vector<Status> verdicts(ops.size());
  // Group op indices by owning shard, preserving arrival order per shard.
  std::vector<std::vector<size_t>> by_shard(state_.shard_count());
  for (size_t i = 0; i < ops.size(); ++i) {
    by_shard[state_.BlockOf(ops[i].rel)].push_back(i);
  }
  std::vector<size_t> busy_shards;
  for (size_t b = 0; b < by_shard.size(); ++b) {
    if (!by_shard[b].empty()) busy_shards.push_back(b);
  }
  IRD_COUNT_ADD(shard.parallel_validations, ops.size());
  // Each task owns exactly one shard and its slice of the verdict vector,
  // so tasks share no mutable state (the obs registry's relaxed atomics
  // aside) — the invariant the CI TSan sweep holds this code to.
  auto validate_shard = [&](size_t task) {
    IRD_SPAN("shard.validate");
    // Per-shard slice latency: the batch's critical path is the slowest
    // shard, which the shard.validate span total can't see.
    IRD_HISTOGRAM_TIMER_NS(shard.validate_ns);
    size_t b = busy_shards[task];
    BlockShard& shard = state_.mutable_shard(b);
    // One scratch per task: the restriction/join buffers are allocated on
    // the first insert and recycled for the rest of the shard's slice.
    MaintainScratch scratch;
    for (size_t i : by_shard[b]) {
      verdicts[i] = shard.Insert(ops[i].rel, ops[i].tuple, &scratch);
    }
  };
  pool_->ForEachIndex(busy_shards.size(), validate_shard);
  return verdicts;
}

}  // namespace ird
