#include "re/alphabet.hpp"

#include <utility>

namespace relb::re {

Alphabet::Alphabet(std::vector<std::string> names) {
  for (auto& n : names) add(std::move(n));
}

Label Alphabet::add(std::string name) {
  if (name.empty()) throw Error("Alphabet: empty label name");
  if (name.find_first_of("[]^#\n\r\t") != std::string::npos) {
    throw Error("Alphabet: label name '" + name +
                "' contains a reserved character");
  }
  if (index_.contains(name)) {
    throw Error("Alphabet: duplicate label name '" + name + "'");
  }
  if (size() >= kMaxLabels) {
    throw Error("Alphabet: too many labels (limit " +
                std::to_string(kMaxLabels) + ")");
  }
  const auto l = static_cast<Label>(names_.size());
  index_.emplace(name, l);
  names_.push_back(std::move(name));
  return l;
}

Label Alphabet::getOrAdd(std::string_view name) {
  if (auto l = find(name)) return *l;
  return add(std::string(name));
}

std::optional<Label> Alphabet::find(std::string_view name) const {
  auto it = index_.find(std::string(name));
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

Alphabet Alphabet::without(Label b) const {
  Alphabet out = *this;
  out.index_.erase(name(b));  // name() range-checks b
  out.names_.erase(out.names_.begin() + b);
  for (auto& entry : out.index_) entry.second -= entry.second > b ? 1 : 0;
  return out;
}

Label Alphabet::at(std::string_view name) const {
  if (auto l = find(name)) return *l;
  throw Error("Alphabet: unknown label '" + std::string(name) + "'");
}

const std::string& Alphabet::name(Label l) const {
  if (l >= names_.size()) throw Error("Alphabet: label index out of range");
  return names_[l];
}

std::string Alphabet::render(LabelSet s) const {
  if (s.empty()) return "[]";
  const auto labels = s.toVector();
  bool multiChar = false;
  for (Label l : labels) {
    if (name(l).size() > 1) multiChar = true;
  }
  if (labels.size() == 1) return name(labels[0]);
  std::string out = "[";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0 && multiChar) out += ' ';
    out += name(labels[i]);
  }
  out += ']';
  return out;
}

}  // namespace relb::re
