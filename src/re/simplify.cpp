#include "re/simplify.hpp"

namespace relb::re {

Problem mergeLabels(const Problem& p, const std::vector<Label>& map,
                    Alphabet newAlphabet) {
  if (map.size() != static_cast<std::size_t>(p.alphabet.size())) {
    throw Error("mergeLabels: map size mismatch");
  }
  for (Label to : map) {
    if (to >= newAlphabet.size()) throw Error("mergeLabels: out of range");
  }
  const auto mapSet = [&](LabelSet s) {
    LabelSet out;
    forEachLabel(s, [&](Label l) { out.insert(map[l]); });
    return out;
  };
  Problem out;
  out.alphabet = std::move(newAlphabet);
  Constraint node(p.node.degree(), {});
  for (const auto& c : p.node.configurations()) node.add(c.mapSets(mapSet));
  Constraint edge(2, {});
  for (const auto& c : p.edge.configurations()) edge.add(c.mapSets(mapSet));
  node.removeDominatedConfigurations();
  edge.removeDominatedConfigurations();
  out.node = std::move(node);
  out.edge = std::move(edge);
  out.validate();
  return out;
}

Problem mergeTwoLabels(const Problem& p, Label a, Label b) {
  const int n = p.alphabet.size();
  if (a >= n || b >= n || a == b) throw Error("mergeTwoLabels: bad labels");
  // New alphabet: all labels except b, preserving order.
  std::vector<Label> map(static_cast<std::size_t>(n));
  for (Label l = 0; l < n; ++l) map[l] = l < b ? l : static_cast<Label>(l - 1);
  map[b] = map[a];
  return mergeLabels(p, map, p.alphabet.without(b));
}

Problem restrictToLabels(const Problem& p, LabelSet keep) {
  const auto filter = [&](const Constraint& constraint) {
    Constraint out(constraint.degree(), {});
    for (const auto& c : constraint.configurations()) {
      if (c.support().subsetOf(keep)) out.add(c);
    }
    return out;
  };
  Problem out;
  out.alphabet = p.alphabet;
  out.node = filter(p.node);
  out.edge = filter(p.edge);
  if (out.node.empty() || out.edge.empty()) {
    throw Error("restrictToLabels: a constraint became empty");
  }
  out.validate();
  return out;
}

}  // namespace relb::re
