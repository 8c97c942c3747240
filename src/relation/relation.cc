#include "relation/relation.h"

#include <unordered_map>
#include <unordered_set>

namespace ird {

void PartialRelation::Add(PartialTuple tuple) {
  IRD_CHECK_MSG(tuple.attrs() == attrs_,
                "tuple attribute set must match the relation's");
  dedup_hashes_.insert(tuple.Hash());
  tuples_.push_back(std::move(tuple));
}

bool PartialRelation::AddUnique(PartialTuple tuple) {
  IRD_CHECK_MSG(tuple.attrs() == attrs_,
                "tuple attribute set must match the relation's");
  size_t h = tuple.Hash();
  if (dedup_hashes_.count(h) > 0) {
    // Possible duplicate (or hash collision): verify.
    for (const PartialTuple& t : tuples_) {
      if (t == tuple) return false;
    }
  }
  dedup_hashes_.insert(h);
  tuples_.push_back(std::move(tuple));
  return true;
}

bool PartialRelation::Contains(const PartialTuple& tuple) const {
  if (dedup_hashes_.count(tuple.Hash()) == 0) return false;
  for (const PartialTuple& t : tuples_) {
    if (t == tuple) return true;
  }
  return false;
}

bool PartialRelation::SetEquals(const PartialRelation& other) const {
  if (attrs_ != other.attrs_) return false;
  // Expected O(n + m): hash each side's rows once instead of a Contains
  // call per row, which scans tuples_ linearly on every hash hit. Set
  // equality on the hashed copies collapses duplicates and ignores order.
  using RowSet = std::unordered_set<PartialTuple, PartialTupleHash>;
  return RowSet(tuples_.begin(), tuples_.end()) ==
         RowSet(other.tuples_.begin(), other.tuples_.end());
}

bool PartialRelation::Satisfies(const FdSet& fds) const {
  for (const FunctionalDependency& fd : fds.fds()) {
    if (!fd.IsEmbeddedIn(attrs_) || fd.IsTrivial()) continue;
    AttributeSet rhs = fd.rhs.Minus(fd.lhs);
    // Map lhs values -> rhs values; any conflict is a violation.
    std::unordered_map<size_t, std::vector<size_t>> buckets;
    for (size_t i = 0; i < tuples_.size(); ++i) {
      PartialTuple lhs_part = tuples_[i].Restrict(fd.lhs);
      size_t h = lhs_part.Hash();
      auto& bucket = buckets[h];
      for (size_t j : bucket) {
        if (tuples_[j].AgreesOn(tuples_[i], fd.lhs) &&
            !tuples_[j].AgreesOn(tuples_[i], rhs)) {
          return false;
        }
      }
      bucket.push_back(i);
    }
  }
  return true;
}

std::string PartialRelation::ToString(const Universe& universe) const {
  std::string out = "{";
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (i > 0) out += ", ";
    out += tuples_[i].ToString(universe);
  }
  out += "}";
  return out;
}

}  // namespace ird
