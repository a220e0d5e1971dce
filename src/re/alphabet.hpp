// Alphabet: bidirectional mapping between label names and label indices.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "re/label_set.hpp"
#include "re/types.hpp"

namespace relb::re {

/// An ordered collection of distinct label names.  The index of a name is its
/// Label.  Value type; copying is cheap enough for the alphabet sizes the
/// engine supports (<= kMaxLabels).
class Alphabet {
 public:
  Alphabet() = default;
  explicit Alphabet(std::vector<std::string> names);

  /// Adds a name and returns its label.  Throws Error on duplicates or
  /// overflow past kMaxLabels.
  Label add(std::string name);

  /// Returns the label for `name`, adding it if absent.
  Label getOrAdd(std::string_view name);

  [[nodiscard]] std::optional<Label> find(std::string_view name) const;

  /// This alphabet without label b (later labels shift down by one): equal
  /// to re-adding the other names in order, without re-validating them.
  [[nodiscard]] Alphabet without(Label b) const;

  /// Returns the label for `name`; throws Error if absent.
  [[nodiscard]] Label at(std::string_view name) const;

  [[nodiscard]] const std::string& name(Label l) const;
  [[nodiscard]] int size() const { return static_cast<int>(names_.size()); }
  [[nodiscard]] LabelSet all() const { return LabelSet::full(size()); }
  [[nodiscard]] const std::vector<std::string>& names() const {
    return names_;
  }

  /// Renders a label set, e.g. "[MPO]" (single labels render without
  /// brackets: "M").  Multi-character label names are joined with spaces.
  [[nodiscard]] std::string render(LabelSet s) const;

  friend bool operator==(const Alphabet& a, const Alphabet& b) {
    return a.names_ == b.names_;
  }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, Label> index_;
};

}  // namespace relb::re
