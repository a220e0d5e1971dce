// Compact CSR adjacency: the one graph type of the LOCAL / port-numbering
// model code, from the gadget-sized port arguments to the 10^7-10^8-node
// simulator.
//
// CsrGraph stores an undirected topology as two flat arrays -- `offsets`
// (numNodes + 1 entries) and `neighbors` (one entry per half-edge) -- both
// uint32_t, allocated in one util::Arena so construction touches malloc a
// constant number of times and teardown is a single free.
//
// Ports: node v's port p is the half-edge to neighbors(v)[p].  Half-edge
// data (labelings, edge colors, orientations) lives in flat vectors with one
// slot per half-edge, indexed by halfEdge(v, p) == offsets[v] + p.
//
// Memory math (tree on n nodes, so 2(n-1) half-edges):
//   offsets   4(n+1) bytes
//   neighbors 8(n-1) bytes        -> ~12 bytes/node, ~1.2 GiB at n = 10^8.
//
// Limits, enforced at build time: numNodes < 2^32 - 1 and
// numHalfEdges <= 2^32 - 1, so uint32_t offsets always suffice (a tree on
// the full 2^32 - 2 nodes still fits).
//
// Neighbor order is part of the determinism contract (docs/simulator.md):
// `fromParents` stores each node's parent first, then its children in
// increasing id order; `fromEdges` appends in edge enumeration order.  The
// frontier kernels never depend on the order, but tests and the CV color
// reduction may.  `fromParents` runs on util::ThreadPool lanes and its
// output is byte-identical at every width (docs/simulator.md, item 6 of the
// determinism contract).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace relb::local {

/// Vertex id in the CSR layout.
using Vertex = std::uint32_t;

inline constexpr Vertex kInvalidVertex = 0xffffffffu;

/// Per-node solution state shared by the frontier kernels and the CSR
/// verifiers, in the style of the FAM mis_kernel's MatchFlag table.
enum class MisFlag : std::uint8_t { kUndecided = 0, kIn = 1, kOut = 2 };

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Builds the CSR form of the tree encoded by `parents`:
  /// parents[0] == 0 (node 0 is the root) and parents[v] < v for v > 0.
  /// Neighbor lists come out as [parent, children ascending].  Runs on up to
  /// `numThreads` lanes (0 = one per core), and on no more than
  /// util::availableCpuCount() lanes for the two owner scans, whose reads
  /// grow with the lane count; the arrays are identical at every width.
  [[nodiscard]] static CsrGraph fromParents(
      std::span<const Vertex> parents,
      int numThreads = util::kDefaultNumThreads);

  /// Builds from an explicit undirected edge list (gadgets, tests).
  /// Neighbor lists follow edge enumeration order.
  [[nodiscard]] static CsrGraph fromEdges(
      Vertex numNodes, std::span<const std::pair<Vertex, Vertex>> edges);

  [[nodiscard]] Vertex numNodes() const { return numNodes_; }
  [[nodiscard]] std::uint64_t numHalfEdges() const {
    return numNodes_ == 0 ? 0 : offsets_[numNodes_];
  }
  [[nodiscard]] std::uint32_t degree(Vertex v) const {
    return offsets_[v + 1] - offsets_[v];
  }
  [[nodiscard]] std::span<const Vertex> neighbors(Vertex v) const {
    return {neighbors_ + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  [[nodiscard]] std::uint32_t maxDegree() const { return maxDegree_; }

  /// Slot of node v's port-p half-edge in a half-edge array.
  [[nodiscard]] std::uint32_t halfEdge(Vertex v, std::uint32_t port) const {
    return offsets_[v] + port;
  }
  /// Port of node v towards its neighbor w (the first, if the edge
  /// repeats); throws if they are not adjacent.
  [[nodiscard]] std::uint32_t portOf(Vertex v, Vertex w) const;

  /// Exact bytes of the two CSR arrays (the quantity docs/simulator.md's
  /// memory math predicts; the arena may hold slightly more).
  [[nodiscard]] std::size_t layoutBytes() const {
    return sizeof(std::uint32_t) * (static_cast<std::size_t>(numNodes_) + 1) +
           sizeof(Vertex) * static_cast<std::size_t>(numHalfEdges());
  }
  /// Bytes actually owned by the backing arena.
  [[nodiscard]] std::size_t arenaBytes() const {
    return arena_ ? arena_->capacityBytes() : 0;
  }

 private:
  CsrGraph(std::unique_ptr<util::Arena> arena, const std::uint32_t* offsets,
           const Vertex* neighbors, Vertex numNodes, std::uint32_t maxDegree)
      : arena_(std::move(arena)),
        offsets_(offsets),
        neighbors_(neighbors),
        numNodes_(numNodes),
        maxDegree_(maxDegree) {}

  std::unique_ptr<util::Arena> arena_;
  const std::uint32_t* offsets_ = nullptr;  // numNodes_ + 1 entries
  const Vertex* neighbors_ = nullptr;       // offsets_[numNodes_] entries
  Vertex numNodes_ = 0;
  std::uint32_t maxDegree_ = 0;
};

}  // namespace relb::local
