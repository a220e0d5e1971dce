#include "family/text.hpp"

#include <cctype>
#include <sstream>

#include "io/file.hpp"

namespace relb::family {

using re::Error;

namespace {

constexpr std::size_t kMaxInputBytes = 1 << 20;  // 1 MiB
constexpr std::size_t kMaxLineBytes = 4096;

[[noreturn]] void failLine(std::size_t lineNo, const std::string& what) {
  throw Error("family parse: line " + std::to_string(lineNo) + ": " + what);
}

/// Trailing free text of a metadata directive (title/model/cite), trimmed.
std::string restText(Scanner& s, std::size_t lineNo, const char* directive) {
  s.skipSpace();
  std::string out(s.remainder());
  while (!out.empty() &&
         (out.back() == ' ' || out.back() == '\t')) {
    out.pop_back();
  }
  if (out.empty()) {
    failLine(lineNo, std::string(directive) + " needs a value");
  }
  return out;
}

/// `var=lo..hi [if cond]`, shared by every comprehension form.  `stop` is
/// the character that ends the clause ('}' / ']' / '\0' for end-of-line).
void parseBindingClause(Scanner& s, std::string& var, Expr& lo, Expr& hi,
                        Cond& cond) {
  auto name = s.ident();
  if (!name) s.fail("expected comprehension variable");
  var = std::move(*name);
  if (!s.consume('=')) s.fail("expected '=' after comprehension variable");
  lo = s.parseExpr();
  if (!s.consumeRangeDots()) s.fail("expected '..' in comprehension range");
  hi = s.parseExpr();
  if (s.consumeWord("if")) cond = s.parseCond();
}

LabelRef parseLabelRef(Scanner& s) {
  LabelRef ref;
  auto name = s.ident();
  if (!name) s.fail("expected label name");
  ref.name = std::move(*name);
  if (s.consume('{')) {
    ref.indexed = true;
    ref.index = s.parseExpr();
    if (!s.consume('}')) s.fail("expected '}' after label index");
  }
  return ref;
}

SetAtom parseSetAtom(Scanner& s) {
  SetAtom atom;
  if (!s.consume('[')) {
    atom.refs.push_back(parseLabelRef(s));
    return atom;
  }
  atom.refs.push_back(parseLabelRef(s));
  if (s.consume('|')) {
    atom.comprehension = true;
    parseBindingClause(s, atom.var, atom.lo, atom.hi, atom.cond);
  } else {
    while (!s.consume(']')) {
      if (s.atEnd()) s.fail("unterminated label set");
      atom.refs.push_back(parseLabelRef(s));
    }
    return atom;
  }
  if (!s.consume(']')) s.fail("expected ']' after set comprehension");
  return atom;
}

ConfigTemplate parseConfigTemplate(Scanner& s) {
  ConfigTemplate tmpl;
  while (!s.atEnd() && s.peek() != '|') {
    GroupTemplate group;
    group.atom = parseSetAtom(s);
    group.count = s.consume('^') ? s.parsePrimary() : Expr::integer(1);
    tmpl.groups.push_back(std::move(group));
  }
  if (tmpl.groups.empty()) s.fail("expected at least one group");
  if (s.consume('|')) {
    if (!s.consumeWord("for")) s.fail("expected 'for' after '|'");
    tmpl.comprehension = true;
    parseBindingClause(s, tmpl.var, tmpl.lo, tmpl.hi, tmpl.cond);
    if (!s.atEnd()) s.fail("trailing input after 'for' clause");
  }
  return tmpl;
}

AlphabetItem parseAlphabetItem(Scanner& s) {
  AlphabetItem item;
  auto name = s.ident();
  if (!name) s.fail("expected label name in alphabet");
  item.name = std::move(*name);
  if (s.consume('{')) {
    item.comprehension = true;
    parseBindingClause(s, item.var, item.lo, item.hi, item.cond);
    if (!s.consume('}')) s.fail("expected '}' after alphabet comprehension");
  }
  return item;
}

std::string renderRange(const Expr& lo, const Expr& hi) {
  return render(lo) + ".." + render(hi);
}

std::string renderBindingClause(const std::string& var, const Expr& lo,
                                const Expr& hi, const Cond& cond) {
  std::string out = var + "=" + renderRange(lo, hi);
  if (!cond.alwaysTrue()) out += " if " + render(cond);
  return out;
}

std::string renderLabelRef(const LabelRef& ref) {
  if (!ref.indexed) return ref.name;
  return ref.name + "{" + render(ref.index) + "}";
}

std::string renderSetAtom(const SetAtom& atom) {
  if (atom.comprehension) {
    return "[" + renderLabelRef(atom.refs.front()) + " | " +
           renderBindingClause(atom.var, atom.lo, atom.hi, atom.cond) + "]";
  }
  if (atom.refs.size() == 1 && !atom.refs.front().indexed) {
    return atom.refs.front().name;
  }
  std::string out = "[";
  for (std::size_t i = 0; i < atom.refs.size(); ++i) {
    if (i > 0) out += ' ';
    out += renderLabelRef(atom.refs[i]);
  }
  return out + "]";
}

std::string renderConfigTemplate(const ConfigTemplate& tmpl) {
  std::string out;
  for (std::size_t i = 0; i < tmpl.groups.size(); ++i) {
    if (i > 0) out += ' ';
    const GroupTemplate& g = tmpl.groups[i];
    out += renderSetAtom(g.atom);
    if (g.count == Expr::integer(1)) continue;
    if (g.count.kind == Expr::Kind::kInt ||
        g.count.kind == Expr::Kind::kVar) {
      out += "^" + render(g.count);
    } else {
      out += "^(" + render(g.count) + ")";
    }
  }
  if (tmpl.comprehension) {
    out += " | for " +
           renderBindingClause(tmpl.var, tmpl.lo, tmpl.hi, tmpl.cond);
  }
  return out;
}

}  // namespace

FamilyDef parseFamilyText(std::string_view text) {
  if (text.size() > kMaxInputBytes) {
    throw Error("family parse: input is " + std::to_string(text.size()) +
                " bytes (limit " + std::to_string(kMaxInputBytes) + ")");
  }
  FamilyDef def;
  bool sawFamily = false;
  std::istringstream iss{std::string(text)};
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(iss, line)) {
    ++lineNo;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.size() > kMaxLineBytes) {
      failLine(lineNo, "line is " + std::to_string(line.size()) +
                           " bytes long (limit " +
                           std::to_string(kMaxLineBytes) + ")");
    }
    for (const char ch : line) {
      const auto c = static_cast<unsigned char>(ch);
      if (c < 0x20 && ch != '\t') {
        failLine(lineNo, "control character in input");
      }
    }
    Scanner s(line);
    if (s.atEnd() || s.peek() == '#') continue;

    auto directive = s.ident();
    if (!directive) failLine(lineNo, "expected a directive");
    try {
      if (*directive == "family") {
        if (sawFamily) failLine(lineNo, "duplicate 'family' directive");
        auto name = s.ident();
        if (!name || !s.atEnd()) {
          failLine(lineNo, "'family' needs exactly one identifier");
        }
        def.name = std::move(*name);
        sawFamily = true;
        continue;
      }
      if (!sawFamily) {
        failLine(lineNo, "the first directive must be 'family <name>'");
      }
      if (*directive == "title") {
        if (!def.title.empty()) failLine(lineNo, "duplicate 'title'");
        def.title = restText(s, lineNo, "title");
      } else if (*directive == "model") {
        if (!def.model.empty()) failLine(lineNo, "duplicate 'model'");
        def.model = restText(s, lineNo, "model");
      } else if (*directive == "cite") {
        if (!def.cite.empty()) failLine(lineNo, "duplicate 'cite'");
        def.cite = restText(s, lineNo, "cite");
      } else if (*directive == "param") {
        ParamDecl p;
        auto name = s.ident();
        if (!name) s.fail("expected parameter name");
        p.name = std::move(*name);
        if (!s.consumeWord("range")) s.fail("expected 'range'");
        p.lo = s.parseExpr();
        if (!s.consumeRangeDots()) s.fail("expected '..' in range");
        p.hi = s.parseExpr();
        if (s.consumeWord("default")) p.defaultValue = s.parseExpr();
        if (!s.atEnd()) s.fail("trailing input after 'param'");
        def.params.push_back(std::move(p));
      } else if (*directive == "require") {
        Cond cond = s.parseCond();
        if (!s.atEnd()) s.fail("trailing input after 'require'");
        def.requirements.push_back(std::move(cond));
      } else if (*directive == "bound") {
        if (def.bound) failLine(lineNo, "duplicate 'bound'");
        Expr b = s.parseExpr();
        if (!s.atEnd()) s.fail("trailing input after 'bound'");
        def.bound = std::move(b);
      } else if (*directive == "alphabet") {
        if (!def.alphabet.empty()) failLine(lineNo, "duplicate 'alphabet'");
        while (!s.atEnd()) def.alphabet.push_back(parseAlphabetItem(s));
        if (def.alphabet.empty()) failLine(lineNo, "'alphabet' needs labels");
      } else if (*directive == "node") {
        def.node.push_back(parseConfigTemplate(s));
      } else if (*directive == "edge") {
        def.edge.push_back(parseConfigTemplate(s));
      } else {
        failLine(lineNo, "unknown directive '" + *directive + "'");
      }
    } catch (const Error& e) {
      // Scanner errors carry the column; prefix the line number once.
      const std::string what = e.what();
      if (what.rfind("family parse: line ", 0) == 0) throw;
      failLine(lineNo, what);
    }
  }
  if (!sawFamily) throw Error("family parse: no 'family' directive");
  validateDef(def);
  return def;
}

std::string renderFamilyText(const FamilyDef& def) {
  std::string out = "# relb-family v1\n";
  out += "family " + def.name + "\n";
  if (!def.title.empty()) out += "title " + def.title + "\n";
  if (!def.model.empty()) out += "model " + def.model + "\n";
  if (!def.cite.empty()) out += "cite " + def.cite + "\n";
  out += "\n";
  for (const ParamDecl& p : def.params) {
    out += "param " + p.name + " range " + render(p.lo) + " .. " +
           render(p.hi);
    if (p.defaultValue) out += " default " + render(*p.defaultValue);
    out += "\n";
  }
  for (const Cond& req : def.requirements) {
    out += "require " + render(req) + "\n";
  }
  if (def.bound) out += "bound " + render(*def.bound) + "\n";
  out += "\n";
  out += "alphabet";
  for (const AlphabetItem& item : def.alphabet) {
    out += ' ';
    if (item.comprehension) {
      out += item.name + "{" +
             renderBindingClause(item.var, item.lo, item.hi, item.cond) + "}";
    } else {
      out += item.name;
    }
  }
  out += "\n\n";
  for (const ConfigTemplate& tmpl : def.node) {
    out += "node " + renderConfigTemplate(tmpl) + "\n";
  }
  out += "\n";
  for (const ConfigTemplate& tmpl : def.edge) {
    out += "edge " + renderConfigTemplate(tmpl) + "\n";
  }
  return out;
}

FamilyDef loadFamilyFile(const std::filesystem::path& path) {
  const auto text = io::readFile(path);
  if (!text) throw Error("cannot open family file '" + path.string() + "'");
  try {
    return parseFamilyText(*text);
  } catch (const Error& e) {
    throw Error(path.string() + ": " + e.what());
  }
}

void saveFamilyFile(const std::filesystem::path& path, const FamilyDef& def) {
  io::atomicWriteFile(path, renderFamilyText(def));
}

}  // namespace relb::family
