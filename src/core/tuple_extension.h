// Algorithm 4 (paper §3.3.1): extend a tuple given on a key K as far as
// possible using the key dependencies and the raw state — each step is one
// single-tuple conjunctive selection σ_{Ki='k'}(Si) answered by the
// StateKeyIndex. On a consistent state of a split-free key-equivalent
// scheme, the result is the unique total tuple of the representative
// instance embedding the key value (Lemma 3.3).

#ifndef IRD_CORE_TUPLE_EXTENSION_H_
#define IRD_CORE_TUPLE_EXTENSION_H_

#include "core/maintain_scratch.h"
#include "core/state_key_index.h"
#include "relation/database_state.h"

namespace ird {

// Tally of one extension run: the number of probes is bounded by
// |S| * |keys|, independent of the state size. CheckInsertCtm sums it over
// a check's keys and adds the total to maintain.alg5.probes once.
struct ExtensionStats {
  size_t probes = 0;
  size_t extensions = 0;
};

// Runs Algorithm 4 from `seed`, a tuple on a key of some scheme in the
// index's pool. Returns the extended tuple t' on C. Fails with
// kInconsistent only if the underlying state is itself inconsistent (two
// state tuples disagreeing on attributes the chase would equate).
// `scratch` (optional) recycles the per-probe restriction and join buffers
// across calls.
Result<PartialTuple> ExtendTuple(const DatabaseScheme& scheme,
                                 const StateKeyIndex& index,
                                 const PartialTuple& seed,
                                 ExtensionStats* stats = nullptr,
                                 MaintainScratch* scratch = nullptr);

}  // namespace ird

#endif  // IRD_CORE_TUPLE_EXTENSION_H_
