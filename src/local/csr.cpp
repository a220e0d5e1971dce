#include "local/csr.hpp"

#include <algorithm>

#include "local/frontier.hpp"
#include "re/types.hpp"

namespace relb::local {

namespace {

struct CsrArrays {
  std::unique_ptr<util::Arena> arena;
  std::uint32_t* offsets = nullptr;
  Vertex* neighbors = nullptr;
};

/// One arena sized for the whole layout up front, so construction performs
/// exactly one chunk allocation.
CsrArrays allocateArrays(Vertex numNodes, std::uint64_t halfEdges) {
  CsrArrays out;
  const std::size_t bytes =
      sizeof(std::uint32_t) * (static_cast<std::size_t>(numNodes) + 1) +
      sizeof(Vertex) * static_cast<std::size_t>(halfEdges) + 64;
  out.arena = std::make_unique<util::Arena>(bytes);
  out.offsets = out.arena->allocate<std::uint32_t>(
      static_cast<std::size_t>(numNodes) + 1);
  out.neighbors =
      out.arena->allocate<Vertex>(static_cast<std::size_t>(halfEdges));
  return out;
}

/// Turns the per-node degrees stored in offsets[1..n] into *exclusive*
/// prefix sums in place, so offsets[u + 1] becomes the first half-edge slot
/// of node u, and returns the half-edge total.  The fill passes then use
/// offsets[u + 1] as u's cursor: once u's row is written the cursor sits on
/// the end of row u, which is the start of row u + 1, so the finished array
/// is the CSR offset table and no separate cursor array is needed.
///
/// Blocked over the fixed frontier blocks: block sums in parallel, a serial
/// scan over the block sums (which enforces the half-edge limit before any
/// slot is rewritten), then every block rewrites its slice from its base.
std::uint64_t exclusivePrefixSum(std::uint32_t* offsets, Vertex numNodes,
                                 int numThreads) {
  std::uint32_t* degrees = offsets + 1;
  std::vector<std::uint64_t> base(numBlocks(numNodes));
  forBlocks(numNodes, numThreads,
            [&](std::size_t b, std::size_t begin, std::size_t end) {
              std::uint64_t sum = 0;
              for (std::size_t i = begin; i < end; ++i) sum += degrees[i];
              base[b] = sum;
            });
  std::uint64_t total = 0;
  for (std::uint64_t& slot : base) {
    const std::uint64_t sum = slot;
    slot = total;
    total += sum;
  }
  if (total > 0xffffffffull) {
    throw re::Error("CsrGraph: more than 2^32 - 1 half-edges");
  }
  forBlocks(numNodes, numThreads,
            [&](std::size_t b, std::size_t begin, std::size_t end) {
              std::uint64_t running = base[b];
              for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t degree = degrees[i];
                degrees[i] = static_cast<std::uint32_t>(running);
                running += degree;
              }
            });
  offsets[0] = 0;
  return total;
}

/// Runs fn(k, lo, hi) on owner lane k for k in [0, bounds.size() - 1): lane
/// k owns the node ids [bounds[k], bounds[k + 1]).  A lane that owns no id
/// has nothing to scan for.
template <typename Fn>
void forOwners(const std::vector<Vertex>& bounds, Fn&& fn) {
  const std::size_t lanes = bounds.size() - 1;
  util::parallel_for(static_cast<int>(lanes), lanes, [&](std::size_t k) {
    if (bounds[k] < bounds[k + 1]) fn(k, bounds[k], bounds[k + 1]);
  });
}

}  // namespace

CsrGraph CsrGraph::fromParents(std::span<const Vertex> parents,
                               int numThreads) {
  if (parents.empty()) throw re::Error("CsrGraph: need at least one node");
  if (parents.size() >= static_cast<std::size_t>(kInvalidVertex)) {
    throw re::Error("CsrGraph: too many nodes for uint32 ids");
  }
  const Vertex n = static_cast<Vertex>(parents.size());
  if (parents[0] != 0) {
    throw re::Error("CsrGraph: parents[0] must be 0 (node 0 is the root)");
  }
  // An AND over chunks (uint8_t slots: a vector<bool> of partial results
  // would pack lanes into one word).
  const std::uint8_t ordered = util::parallel_reduce(
      numThreads, n - 1, std::uint8_t{1},
      [&](std::size_t begin, std::size_t end) -> std::uint8_t {
        for (std::size_t v = begin + 1; v < end + 1; ++v) {
          if (parents[v] >= v) return 0;
        }
        return 1;
      },
      [](std::uint8_t a, std::uint8_t b) -> std::uint8_t { return a & b; });
  if (ordered == 0) {
    throw re::Error("CsrGraph: parents[v] < v required for v > 0");
  }

  CsrArrays arrays = allocateArrays(n, 2 * (static_cast<std::uint64_t>(n) - 1));
  std::uint32_t* offsets = arrays.offsets;
  Vertex* neighbors = arrays.neighbors;

  // Owner-computes: a lane alone writes offsets[u + 1] and row u for every
  // id u it owns, so lanes never share a slot and need no atomics.  A child
  // v of u has v > u, so the owner of [lo, hi) scans parents from lo + 1 and
  // keeps the children whose parent it owns; the ascending scan hands each
  // owned row its children in increasing id order.  Width 1 is one lane
  // owning every id.  Every owner repeats the scan, so w owners read about
  // n(w + 1)/2 parents per pass: owners are capped at the CPUs the process
  // can run on, where the extra reads overlap instead of queueing.
  const std::size_t lanes = std::min<std::size_t>(
      {static_cast<std::size_t>(util::resolveThreadCount(numThreads)),
       static_cast<std::size_t>(util::availableCpuCount()), n});
  std::vector<Vertex> bounds(lanes + 1);
  for (std::size_t k = 0; k <= lanes; ++k) {
    bounds[k] = static_cast<Vertex>(std::uint64_t{n} * k / lanes);
  }
  std::vector<std::uint32_t> laneMaxDegree(lanes, 0);

  // Degree count (the parent edge plus one per child) over equal id ranges,
  // which also first-touches each lane's slice of offsets.
  forOwners(bounds, [&](std::size_t k, Vertex lo, Vertex hi) {
    for (Vertex u = lo; u < hi; ++u) offsets[u + 1] = u == 0 ? 0 : 1;
    const Vertex owned = hi - lo;
    for (Vertex v = lo + 1; v < n; ++v) {
      const Vertex p = parents[v];
      if (p - lo < owned) ++offsets[p + 1];
    }
    std::uint32_t best = 0;
    for (Vertex u = lo; u < hi; ++u) best = std::max(best, offsets[u + 1]);
    laneMaxDegree[k] = best;
  });
  const std::uint64_t halfEdges = exclusivePrefixSum(offsets, n, numThreads);

  // Fill: every owned row gets its parent first, then its children.  Now
  // that the row starts are known (offsets[u + 1]), the id ranges are
  // re-cut so every lane owns about the same number of half-edges: the low
  // ids of an attachment tree carry most of the children.  The cut only
  // moves work between lanes; every row is written the same way.
  for (std::size_t k = 1; k < lanes; ++k) {
    bounds[k] = static_cast<Vertex>(
        std::lower_bound(offsets + 1, offsets + 1 + n, halfEdges * k / lanes) -
        (offsets + 1));
  }
  forOwners(bounds, [&](std::size_t, Vertex lo, Vertex hi) {
    for (Vertex u = std::max<Vertex>(lo, 1); u < hi; ++u) {
      neighbors[offsets[u + 1]++] = parents[u];
    }
    const Vertex owned = hi - lo;
    for (Vertex v = lo + 1; v < n; ++v) {
      const Vertex p = parents[v];
      if (p - lo < owned) neighbors[offsets[p + 1]++] = v;
    }
  });

  const std::uint32_t maxDeg =
      *std::max_element(laneMaxDegree.begin(), laneMaxDegree.end());
  return CsrGraph(std::move(arrays.arena), offsets, neighbors, n, maxDeg);
}

CsrGraph CsrGraph::fromEdges(Vertex numNodes,
                             std::span<const std::pair<Vertex, Vertex>> edges) {
  if (numNodes == 0) throw re::Error("CsrGraph: need at least one node");
  if (numNodes == kInvalidVertex) {
    throw re::Error("CsrGraph: too many nodes for uint32 ids");
  }
  for (const auto& [u, v] : edges) {
    if (u >= numNodes || v >= numNodes || u == v) {
      throw re::Error("CsrGraph::fromEdges: bad endpoints");
    }
  }

  CsrArrays arrays = allocateArrays(numNodes, 2 * edges.size());
  std::uint32_t* offsets = arrays.offsets;
  std::fill(offsets, offsets + numNodes + 1, 0u);
  for (const auto& [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  exclusivePrefixSum(offsets, numNodes, util::kSerialNumThreads);
  for (const auto& [u, v] : edges) {
    arrays.neighbors[offsets[u + 1]++] = v;
    arrays.neighbors[offsets[v + 1]++] = u;
  }

  std::uint32_t maxDeg = 0;
  for (Vertex v = 0; v < numNodes; ++v) {
    maxDeg = std::max(maxDeg, offsets[v + 1] - offsets[v]);
  }
  return CsrGraph(std::move(arrays.arena), offsets, arrays.neighbors, numNodes,
                  maxDeg);
}

std::uint32_t CsrGraph::portOf(Vertex v, Vertex w) const {
  const auto row = neighbors(v);
  const auto it = std::find(row.begin(), row.end(), w);
  if (it == row.end()) throw re::Error("CsrGraph::portOf: nodes not adjacent");
  return static_cast<std::uint32_t>(it - row.begin());
}

}  // namespace relb::local
