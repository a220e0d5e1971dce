#include "re/constraint.hpp"

#include <algorithm>
#include <set>

namespace relb::re {

Constraint::Constraint(Count degree, std::vector<Configuration> configurations)
    : degree_(degree) {
  if (degree < 0) throw Error("Constraint: negative degree");
  for (auto& c : configurations) add(std::move(c));
}

void Constraint::add(Configuration c) {
  if (c.degree() != degree_) {
    throw Error("Constraint: configuration degree mismatch (" +
                std::to_string(c.degree()) + " vs " + std::to_string(degree_) +
                ")");
  }
  if (std::find(configurations_.begin(), configurations_.end(), c) ==
      configurations_.end()) {
    configurations_.push_back(std::move(c));
  }
}

LabelSet Constraint::support() const {
  LabelSet s;
  for (const auto& c : configurations_) s = s | c.support();
  return s;
}

bool Constraint::containsWord(const Word& w) const {
  return std::any_of(configurations_.begin(), configurations_.end(),
                     [&](const Configuration& c) { return c.matchesWord(w); });
}

bool Constraint::intersectsConfiguration(const Configuration& c) const {
  return std::any_of(
      configurations_.begin(), configurations_.end(),
      [&](const Configuration& mine) { return mine.intersects(c); });
}

bool Constraint::containsAllWordsOf(const Configuration& c, int alphabetSize,
                                    std::size_t limit) const {
  // Cheap sufficient check: some single configuration swallows all of L(c).
  for (const auto& mine : configurations_) {
    if (c.relaxesTo(mine)) return true;
  }
  // Skip hopeless enumerations outright (the arithmetic bound overestimates,
  // so this may throw in cases enumeration could still decide; callers treat
  // the Error as "undecided at this budget").
  if (c.countWordsUpperBound(limit) > limit) {
    throw Error("containsAllWordsOf: language too large to enumerate");
  }
  bool all = true;
  c.forEachWord(
      alphabetSize,
      [&](const Word& w) {
        if (all && !containsWord(w)) all = false;
      },
      limit);
  return all;
}

std::vector<Word> Constraint::enumerateWords(int alphabetSize,
                                             std::size_t limit) const {
  std::set<Word> words;
  for (const auto& c : configurations_) {
    c.forEachWord(
        alphabetSize,
        [&](const Word& w) {
          words.insert(w);
          if (words.size() > limit) {
            throw Error("enumerateWords: word count exceeds limit");
          }
        },
        limit);
  }
  return {words.begin(), words.end()};
}

void Constraint::removeDominatedConfigurations() {
  const auto& cs = configurations_;
  std::vector<Configuration> kept;
  for (std::size_t i = 0; i < cs.size(); ++i) {
    // Ties (mutual containment) keep the earlier configuration.
    bool dominated = false;
    for (std::size_t j = 0; j < cs.size() && !dominated; ++j) {
      dominated = j != i && cs[j].containsAllWordsOf(cs[i]) &&
                  (j < i || !cs[i].containsAllWordsOf(cs[j]));
    }
    if (!dominated) kept.push_back(cs[i]);
  }
  configurations_ = std::move(kept);
}

std::string Constraint::render(const Alphabet& alphabet,
                               const std::string& sep) const {
  std::string out;
  for (std::size_t i = 0; i < configurations_.size(); ++i) {
    if (i > 0) out += sep;
    out += configurations_[i].render(alphabet);
  }
  return out;
}

bool sameLanguage(const Constraint& a, const Constraint& b, int alphabetSize) {
  if (a.degree() != b.degree()) return false;
  for (const auto& c : a.configurations()) {
    if (!b.containsAllWordsOf(c, alphabetSize)) return false;
  }
  for (const auto& c : b.configurations()) {
    if (!a.containsAllWordsOf(c, alphabetSize)) return false;
  }
  return true;
}

}  // namespace relb::re
