#include "re/configuration.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>

#include "re/flow.hpp"

namespace relb::re {

Count wordDegree(const Word& w) {
  return std::accumulate(w.begin(), w.end(), Count{0});
}

Word wordFromLabels(const std::vector<Label>& labels, int alphabetSize) {
  Word w(static_cast<std::size_t>(alphabetSize), 0);
  for (Label l : labels) {
    if (l >= alphabetSize) throw Error("wordFromLabels: label out of range");
    ++w[l];
  }
  return w;
}

Configuration::Configuration(std::vector<Group> groups) {
  groups_.reserve(groups.size());
  for (const Group& g : groups) {
    if (g.count < 0) throw Error("Configuration: negative exponent");
    if (g.count == 0) continue;
    if (g.set.empty()) throw Error("Configuration: empty label set in group");
    groups_.push_back(g);
  }
  // Normalize in place (sort by set, merge equal sets) -- equivalent to the
  // obvious std::map<LabelSet, Count> but without node allocations; these
  // constructions are hot in the step and zero-round paths.
  std::sort(groups_.begin(), groups_.end(),
            [](const Group& a, const Group& b) { return a.set < b.set; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < groups_.size();) {
    Group merged = groups_[i];
    for (++i; i < groups_.size() && groups_[i].set == merged.set; ++i) {
      merged.count += groups_[i].count;
    }
    degree_ += merged.count;
    groups_[out++] = merged;
  }
  groups_.resize(out);
}

Configuration Configuration::fromWord(const Word& w) {
  std::vector<Group> groups;
  for (std::size_t l = 0; l < w.size(); ++l) {
    if (w[l] > 0) {
      groups.push_back({LabelSet::single(static_cast<Label>(l)), w[l]});
    }
  }
  return Configuration(std::move(groups));
}

LabelSet Configuration::support() const {
  LabelSet s;
  for (const Group& g : groups_) s = s | g.set;
  return s;
}

bool Configuration::matchesWord(const Word& w) const {
  if (wordDegree(w) != degree_) return false;
  if (degree_ == 0) return true;
  // Nodes: 0 = source, 1..L = labels, L+1..L+G = groups, L+G+1 = sink.
  const int numLabels = static_cast<int>(w.size());
  const int numGroups = static_cast<int>(groups_.size());
  const int source = 0;
  const int sink = numLabels + numGroups + 1;
  MaxFlow flow(sink + 1);
  for (int l = 0; l < numLabels; ++l) {
    if (w[static_cast<std::size_t>(l)] > 0) {
      flow.addEdge(source, 1 + l, w[static_cast<std::size_t>(l)]);
    }
  }
  for (int g = 0; g < numGroups; ++g) {
    const Group& group = groups_[static_cast<std::size_t>(g)];
    flow.addEdge(1 + numLabels + g, sink, group.count);
    forEachLabel(group.set, [&](Label l) {
      if (l < numLabels && w[l] > 0) {
        flow.addEdge(1 + l, 1 + numLabels + g, group.count);
      }
    });
  }
  return flow.solve(source, sink) == degree_;
}

bool Configuration::intersects(const Configuration& other) const {
  if (degree_ != other.degree_) return false;
  if (degree_ == 0) return true;
  if (!support().intersects(other.support())) return false;
  // Tripartite flow: source -> my groups -> labels -> other's groups -> sink.
  const LabelSet common = support() & other.support();
  const auto labels = common.toVector();
  const int numLabels = static_cast<int>(labels.size());
  const int gMine = static_cast<int>(groups_.size());
  const int gOther = static_cast<int>(other.groups_.size());
  const int source = 0;
  const int sink = gMine + numLabels + gOther + 1;
  MaxFlow flow(sink + 1);
  std::array<int, kMaxLabels> labelNode{};
  labelNode.fill(-1);
  for (int i = 0; i < numLabels; ++i) {
    labelNode[labels[static_cast<std::size_t>(i)]] = 1 + gMine + i;
  }
  for (int g = 0; g < gMine; ++g) {
    const Group& group = groups_[static_cast<std::size_t>(g)];
    flow.addEdge(source, 1 + g, group.count);
    forEachLabel(group.set & common, [&](Label l) {
      flow.addEdge(1 + g, labelNode[l], group.count);
    });
  }
  for (int h = 0; h < gOther; ++h) {
    const Group& group = other.groups_[static_cast<std::size_t>(h)];
    flow.addEdge(1 + gMine + numLabels + h, sink, group.count);
    forEachLabel(group.set & common, [&](Label l) {
      flow.addEdge(labelNode[l], 1 + gMine + numLabels + h, group.count);
    });
  }
  return flow.solve(source, sink) == degree_;
}

bool Configuration::relaxesTo(const Configuration& other) const {
  if (degree_ != other.degree_) return false;
  if (degree_ == 0) return true;
  // Bipartite flow between my groups and other's groups; a slot of my group g
  // may map to a slot of other's group h iff g.set is a subset of h.set.
  const int gMine = static_cast<int>(groups_.size());
  const int gOther = static_cast<int>(other.groups_.size());
  const int source = 0;
  const int sink = gMine + gOther + 1;
  MaxFlow flow(sink + 1);
  for (int g = 0; g < gMine; ++g) {
    flow.addEdge(source, 1 + g, groups_[static_cast<std::size_t>(g)].count);
    for (int h = 0; h < gOther; ++h) {
      if (groups_[static_cast<std::size_t>(g)].set.subsetOf(
              other.groups_[static_cast<std::size_t>(h)].set)) {
        flow.addEdge(1 + g, 1 + gMine + h,
                     groups_[static_cast<std::size_t>(g)].count);
      }
    }
  }
  for (int h = 0; h < gOther; ++h) {
    flow.addEdge(1 + gMine + h, sink,
                 other.groups_[static_cast<std::size_t>(h)].count);
  }
  return flow.solve(source, sink) == degree_;
}

bool Configuration::containsAllWordsOf(const Configuration& other) const {
  if (degree_ != other.degree_) return false;
  if (!other.support().subsetOf(support())) return false;  // fast reject
  // Hall's condition (see the header) over the distinct unions of my sets.
  std::vector<LabelSet> unions{LabelSet{}};
  for (const Group& g : groups_) {
    const std::size_t n = unions.size();
    for (std::size_t i = 0; i < n; ++i) unions.push_back(unions[i] | g.set);
    std::sort(unions.begin(), unions.end());
    unions.erase(std::unique(unions.begin(), unions.end()), unions.end());
  }
  const auto slotsInside = [](const Configuration& c, LabelSet u) {
    Count n = 0;
    for (const Group& g : c.groups_) n += g.set.subsetOf(u) ? g.count : 0;
    return n;
  };
  return std::all_of(unions.begin(), unions.end(), [&](LabelSet u) {
    return slotsInside(*this, u) <= slotsInside(other, u);
  });
}

void Configuration::forEachWord(int alphabetSize,
                                const std::function<void(const Word&)>& fn,
                                std::size_t limit) const {
  // Delegates to the template overload; kept out of line so ABI-stable
  // callers holding an erased callback keep a non-inline entry point.
  forEachWord(
      alphabetSize, [&fn](const Word& w) { fn(w); }, limit);
}

std::size_t Configuration::countWords(int alphabetSize,
                                      std::size_t limit) const {
  std::size_t count = 0;
  try {
    forEachWord(
        alphabetSize, [&](const Word&) { ++count; }, limit);
  } catch (const Error&) {
    return limit + 1;
  }
  return count;
}

std::size_t Configuration::countWordsUpperBound(std::size_t cap) const {
  // Multiset coefficient C(s + c - 1, c) per group, saturating at cap.
  const auto saturated = cap + 1;
  std::size_t total = 1;
  for (const Group& g : groups_) {
    const std::size_t s = static_cast<std::size_t>(g.set.size());
    std::size_t per = 1;
    // C(s + c - 1, c) = prod_{i=1..s-1} (c + i) / i.
    for (std::size_t i = 1; i < s; ++i) {
      const double estimate = static_cast<double>(per) *
                              (static_cast<double>(g.count) + i) /
                              static_cast<double>(i);
      if (estimate > static_cast<double>(saturated)) {
        per = saturated;
        break;
      }
      per = per * (static_cast<std::size_t>(g.count) + i) / i;
    }
    const double combined = static_cast<double>(total) * static_cast<double>(per);
    if (combined > static_cast<double>(saturated)) return saturated;
    total *= per;
  }
  return total;
}

std::string Configuration::render(const Alphabet& alphabet) const {
  if (groups_.empty()) return "(empty)";
  std::string out;
  bool first = true;
  for (const Group& g : groups_) {
    if (!first) out += ' ';
    first = false;
    out += alphabet.render(g.set);
    if (g.count != 1) {
      out += '^';
      out += std::to_string(g.count);
    }
  }
  return out;
}

}  // namespace relb::re
