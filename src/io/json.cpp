#include "io/json.hpp"

#include <algorithm>
#include <cctype>

namespace relb::io {

using re::Error;

namespace {

[[noreturn]] void typeError(const char* expected, Json::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "int",
                                           "string", "array", "object"};
  throw Error(std::string("json: expected ") + expected + ", have " +
              kNames[static_cast<int>(got)]);
}

void writeEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(ch >> 4) & 0xF];
          out += kHex[ch & 0xF];
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parseDocument() {
    Json value = parseValue(0);
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("json: line " + std::to_string(line_) + ", column " +
                std::to_string(pos_ - lineStart_ + 1) + ": " + what);
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == '\n') {
        ++line_;
        ++pos_;
        lineStart_ = pos_;
      } else if (ch == ' ' || ch == '\t' || ch == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool consumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parseValue(int depth) {
    if (depth > 64) fail("nesting too deep");
    skipWhitespace();
    const char ch = peek();
    switch (ch) {
      case '{': return parseObject(depth);
      case '[': return parseArray(depth);
      case '"': return Json(parseString());
      case 't':
        if (consumeLiteral("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consumeLiteral("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consumeLiteral("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parseNumber();
    }
  }

  Json parseObject(int depth) {
    expect('{');
    Json out = Json::object();
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skipWhitespace();
      if (peek() != '"') fail("expected object key string");
      std::string key = parseString();
      if (out.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      skipWhitespace();
      expect(':');
      out.set(std::move(key), parseValue(depth + 1));
      skipWhitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return out;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parseArray(int depth) {
    expect('[');
    Json out = Json::array();
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push(parseValue(depth + 1));
      skipWhitespace();
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return out;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char ch = text_[pos_++];
      if (ch == '"') return out;
      // RFC 8259: control characters (U+0000..U+001F) must be escaped inside
      // strings.  The writer always escapes them (writeEscaped above), so a
      // raw one here is a corrupt or hand-forged document -- and letting it
      // through would make dump(parse(text)) disagree with text, breaking
      // the checksum reproducibility the formats rely on.
      if (ch == '\n') fail("raw newline in string");
      if (static_cast<unsigned char>(ch) < 0x20) {
        fail("raw control character in string (escape it as \\u00xx)");
      }
      if (ch != '\\') {
        out += ch;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The schemas only ever escape control characters; reject the rest
          // rather than implementing UTF-16 surrogate handling.
          if (code > 0x7F) fail("\\u escape above 0x7f unsupported");
          out += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      pos_ = start;
      fail("invalid value");
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      fail("non-integer numbers are not part of the schema");
    }
    const std::string_view digits = text_.substr(start, pos_ - start);
    std::int64_t value = 0;
    const bool negative = digits.front() == '-';
    for (const char d : digits.substr(negative ? 1 : 0)) {
      if (value > (INT64_MAX - (d - '0')) / 10) fail("integer overflow");
      value = value * 10 + (d - '0');
    }
    return Json(negative ? -value : value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t lineStart_ = 0;
};

}  // namespace

bool Json::asBool() const {
  if (type_ != Type::kBool) typeError("bool", type_);
  return bool_;
}

std::int64_t Json::asInt() const {
  if (type_ != Type::kInt) typeError("int", type_);
  return int_;
}

const std::string& Json::asString() const {
  if (type_ != Type::kString) typeError("string", type_);
  return string_;
}

const Json::Array& Json::asArray() const {
  if (type_ != Type::kArray) typeError("array", type_);
  return array_;
}

const Json::Object& Json::asObject() const {
  if (type_ != Type::kObject) typeError("object", type_);
  return object_;
}

void Json::push(Json v) {
  if (type_ != Type::kArray) typeError("array", type_);
  array_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (type_ != Type::kObject) typeError("object", type_);
  object_.emplace_back(std::move(key), std::move(v));
}

const Json* Json::find(std::string_view key) const {
  const auto& members = asObject();
  const auto it =
      std::find_if(members.begin(), members.end(),
                   [&](const auto& kv) { return kv.first == key; });
  return it == members.end() ? nullptr : &it->second;
}

const Json& Json::at(std::string_view key) const {
  const Json* member = find(key);
  if (member == nullptr) {
    throw Error("json: missing member '" + std::string(key) + "'");
  }
  return *member;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kInt: out += std::to_string(int_); break;
    case Type::kString: writeEscaped(out, string_); break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        writeEscaped(out, object_[i].first);
        out += ':';
        if (indent > 0) out += ' ';
        object_[i].second.write(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string Json::dumpPretty() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parseDocument();
}

std::string fnv1a64Hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x00000100000001b3ULL;
  }
  return hex64(h);
}

std::string hex64(std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[value & 0xF];
    value >>= 4;
  }
  return out;
}

}  // namespace relb::io
