// A minimal, dependency-free JSON value type with a deterministic writer and
// a position-reporting recursive-descent parser.
//
// Scope is exactly what the persistence layer needs (docs/formats.md):
//   * numbers are 64-bit signed integers -- every quantity in the schemas
//     (degrees, exponents, label indices, counters) is integral, and
//     integers round-trip exactly, which the per-section checksums require;
//   * object member order is preserved, so serialize(parse(text)) == text
//     for documents this writer produced (checksums are computed over the
//     serialized bytes and must be reproducible);
//   * parse errors throw re::Error with 1-based line/column positions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "re/types.hpp"

namespace relb::io {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kString, kArray, kObject };

  using Array = std::vector<Json>;
  /// Insertion-ordered; duplicate keys are rejected by the parser.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(std::int64_t i) : type_(Type::kInt), int_(i) {}
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool isNull() const { return type_ == Type::kNull; }
  [[nodiscard]] bool isObject() const { return type_ == Type::kObject; }
  [[nodiscard]] bool isArray() const { return type_ == Type::kArray; }

  // Checked accessors; throw re::Error naming the expected type.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] std::int64_t asInt() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const Array& asArray() const;
  [[nodiscard]] const Object& asObject() const;

  /// Appends to an array value.
  void push(Json v);
  /// Appends a member to an object value (no duplicate-key check; builders
  /// control their keys).
  void set(std::string key, Json v);

  /// Pointer to the member `key`, or nullptr if absent (object values only;
  /// throws on other types).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// The member `key`; throws re::Error if absent.
  [[nodiscard]] const Json& at(std::string_view key) const;

  /// Compact serialization (no whitespace).  Deterministic: the same value
  /// always produces the same bytes.
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization with 2-space indentation, for files humans read.
  [[nodiscard]] std::string dumpPretty() const;

  /// Parses a complete JSON document (trailing whitespace allowed, anything
  /// else is an error).  Throws re::Error with line/column on malformed
  /// input, duplicate object keys, non-integer numbers, or nesting deeper
  /// than 64 levels.
  [[nodiscard]] static Json parse(std::string_view text);

  friend bool operator==(const Json&, const Json&) = default;

 private:
  void write(std::string& out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::string string_;
  Array array_;
  Object object_;
};

/// FNV-1a 64-bit checksum of a byte string, as a fixed-width lowercase hex
/// string (16 chars).  The store and the certificate sections both use this;
/// it detects corruption and casual tampering, not adversaries.
[[nodiscard]] std::string fnv1a64Hex(std::string_view bytes);

/// `value` as 16 lowercase hex digits (the fnv1a64Hex format).
[[nodiscard]] std::string hex64(std::uint64_t value);

}  // namespace relb::io
