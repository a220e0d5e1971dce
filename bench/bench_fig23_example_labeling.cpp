// F2/F3 -- Figures 2 and 3: a concrete valid output labeling of a problem
// of the family with a = x = 2 on a Delta = 4 tree, exhibiting all three
// node types (type-1 M-nodes, type-2 P-nodes, type-3 A-nodes), generated
// and verified by the generic LCL checker.
#include <algorithm>

#include "bench_util.hpp"
#include "core/conversions.hpp"
#include "core/family.hpp"
#include "local/families.hpp"
#include "local/halfedge.hpp"
#include "local/upper_bounds.hpp"

namespace {

using namespace relb;

// Counts nodes by the configuration type they output.
struct TypeCounts {
  int type1 = 0;  // M (dominating set)
  int type2 = 0;  // P (pointing)
  int type3 = 0;  // A (owning)
  int other = 0;
};

TypeCounts countTypes(const local::CsrGraph& g,
                      const local::HalfEdgeLabeling& labeling) {
  TypeCounts counts;
  for (local::Vertex v = 0; v < g.numNodes(); ++v) {
    bool hasM = false, hasP = false, hasA = false;
    for (std::uint32_t p = 0; p < g.degree(v); ++p) {
      const auto l = labeling[g.halfEdge(v, p)];
      hasM |= l == core::kM;
      hasP |= l == core::kP;
      hasA |= l == core::kA;
    }
    if (hasM) {
      ++counts.type1;
    } else if (hasA) {
      ++counts.type3;
    } else if (hasP) {
      ++counts.type2;
    } else {
      ++counts.other;
    }
  }
  return counts;
}

// The Figure 2/3 style labeling: even BFS depth = type-3 nodes owning two
// edges (A^2 X^2), odd depth = type-2 nodes (P O^3) pointing through
// non-owned edges.  Every even node labels its parent edge X so odd nodes
// can point at a child.
local::HalfEdgeLabeling ownershipLabeling(const local::CsrGraph& g) {
  std::vector<int> depth(g.numNodes(), -1);
  std::vector<local::Vertex> order{0};
  depth[0] = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (const local::Vertex w : g.neighbors(order[i])) {
      if (depth[w] < 0) {
        depth[w] = depth[order[i]] + 1;
        order.push_back(w);
      }
    }
  }
  local::HalfEdgeLabeling out(g.numHalfEdges());
  for (local::Vertex v = 0; v < g.numNodes(); ++v) {
    const int d = depth[v];
    const auto row = g.neighbors(v);
    if (d % 2 == 0) {
      // Type 3: own two child edges (A), X elsewhere (parent edge first).
      int owned = 0;
      for (std::uint32_t p = 0; p < row.size(); ++p) {
        const bool isParent = depth[row[p]] == d - 1;
        const bool own = !isParent && owned < 2;
        out[g.halfEdge(v, p)] = own ? core::kA : core::kX;
        owned += own ? 1 : 0;
      }
    } else {
      // Type 2: point at one child through its X-labeled side; leaves point
      // nowhere and output all O (boundary nodes, node constraint skipped).
      bool pointed = false;
      for (std::uint32_t p = 0; p < row.size(); ++p) {
        const bool point = !pointed && depth[row[p]] == d + 1;
        out[g.halfEdge(v, p)] = point ? core::kP : core::kO;
        pointed = pointed || point;
      }
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace relb;
  bench::banner("Figures 2/3: valid labelings of Pi_4(2,2) on a tree");

  const int delta = 4;
  const local::CsrGraph g =
      local::makeTree(local::Family::kCompleteTree,
                      local::completeTreeNodes(delta, 4), delta, 0)
          .graph;
  const auto pi = core::familyProblem(delta, 2, 2);
  std::cout << "tree: n = " << g.numNodes() << ", problem Pi_" << delta
            << "(a=2, x=2)\n\n";

  // Labeling 1 (Figure 2 flavor): type-3 owners + type-2 pointers.
  const auto own = ownershipLabeling(g);
  const auto ownCheck = local::checkLabeling(g, pi, own);
  const auto ownTypes = countTypes(g, own);
  bench::Table t({"labeling", "type-1 (M)", "type-2 (P)", "type-3 (A)",
                  "other", "valid"});
  t.row("ownership (Fig. 2)", ownTypes.type1, ownTypes.type2, ownTypes.type3,
        ownTypes.other, ownCheck.ok());

  // Labeling 2 (Figure 3 flavor): dominating-set based, type-1 + type-2.
  const auto dsBase = core::lemma5Labeling(
      g, local::greedyMis(g), std::vector<std::uint8_t>(g.numHalfEdges(), 0),
      0);
  const auto ds = core::lemma11Relax(g, dsBase, delta, 0, 2, 2);
  const auto dsCheck = local::checkLabeling(g, pi, ds);
  const auto dsTypes = countTypes(g, ds);
  t.row("dominating set (Fig. 3)", dsTypes.type1, dsTypes.type2, dsTypes.type3,
        dsTypes.other, dsCheck.ok());
  t.print();
  std::cout << "\n";

  bench::verdict(ownCheck.ok(), "ownership labeling verified by LCL checker");
  bench::verdict(dsCheck.ok(), "dominating-set labeling verified");
  bench::verdict(ownTypes.type3 > 0 && dsTypes.type1 > 0 &&
                     ownTypes.type2 > 0,
                 "all three node types of Figure 2 exhibited");
  return 0;
}
