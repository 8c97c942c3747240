// Algorithm 2 (paper §3.2): incremental constraint enforcement for
// key-equivalent database schemes. Given a consistent state's
// representative instance and an inserted tuple, decides in a bounded
// number of single-tuple key lookups whether the enlarged state is still
// consistent — the algebraic-maintainability of Theorem 3.2. Stateful
// maintenance runs it through BlockShard (core/block_shard.h) on every
// split block.

#ifndef IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_
#define IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_

#include <vector>

#include "core/maintain_scratch.h"
#include "core/representative_index.h"
#include "relation/database_state.h"

namespace ird {

// The distinct keys embedded in the pool's relations — Algorithm 2's key
// worklist universe. Depends only on the scheme and pool, so callers that
// check many inserts compute it once (BlockShard caches it per block).
std::vector<AttributeSet> DistinctPoolKeys(const DatabaseScheme& scheme,
                                           const std::vector<size_t>& pool);

// Algorithm 2 on one instance <s, t>: `index` must be the representative
// instance of the (pool-restricted) current state and `pool_keys` the
// pool's DistinctPoolKeys; `rel` ∈ pool is the relation receiving `tuple`.
// Returns the extended tuple q on success ("yes", plus q, as in the paper)
// or kInconsistent ("no"). Pure — neither the state nor the index is
// modified. `scratch` (optional) recycles the worklist and join buffers.
// Work is reported on the maintain.alg2.{checks,keys_processed,lookups,
// rejects} counters.
Result<PartialTuple> CheckInsertKeyEquivalent(
    const DatabaseScheme& scheme,
    const std::vector<AttributeSet>& pool_keys,
    const RepresentativeIndex& index, size_t rel, const PartialTuple& tuple,
    MaintainScratch* scratch = nullptr);

}  // namespace ird

#endif  // IRD_CORE_KEY_EQUIVALENT_MAINTAINER_H_
