// SignatureBuckets: the union-signature antichain prune of the
// maximality filter of maximalEdgePairs (edge_compat.cpp).
//
// There, "q dominates p" forces union(p) subsetOf union(q), so a
// candidate only needs to be compared against buckets whose signature is a
// superset of its own.  With U distinct signatures and candidates spread
// across them, the scan cost drops from O(P^2) domination tests to O(P * U)
// signature tests plus tests against plausibly-dominating buckets.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace relb::re::detail {

class SignatureBuckets {
 public:
  explicit SignatureBuckets(const std::vector<std::uint32_t>& signatures) {
    std::unordered_map<std::uint32_t, std::size_t> index;
    for (std::size_t i = 0; i < signatures.size(); ++i) {
      const auto [it, fresh] =
          index.emplace(signatures[i], signatures_.size());
      if (fresh) {
        signatures_.push_back(signatures[i]);
        members_.emplace_back();
      }
      members_[it->second].push_back(i);
    }
  }

  /// Applies `visit(j)` to every candidate j whose signature is a superset
  /// of `sig`, until one returns true; returns whether any did.
  template <typename Visit>
  bool anyInSupersetBucket(std::uint32_t sig, Visit&& visit) const {
    for (std::size_t b = 0; b < signatures_.size(); ++b) {
      if ((sig & ~signatures_[b]) != 0) continue;
      for (const std::size_t j : members_[b]) {
        if (visit(j)) return true;
      }
    }
    return false;
  }

 private:
  std::vector<std::uint32_t> signatures_;
  std::vector<std::vector<std::size_t>> members_;
};

}  // namespace relb::re::detail
