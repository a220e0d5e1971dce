#include "re/problem.hpp"

#include <cctype>
#include <sstream>

namespace relb::re {

namespace {

// Every diagnostic carries where (context = "<section> line N" from
// Problem::parse, empty for direct parseConfiguration calls), the 1-based
// column, and the offending token, e.g.
//   parse: node constraint line 2, column 5: bad exponent 'x' in 'O^x'
[[noreturn]] void parseFail(std::string_view context, std::size_t column,
                            const std::string& what) {
  std::string msg = "parse: ";
  if (!context.empty()) msg += std::string(context) + ", ";
  msg += "column " + std::to_string(column) + ": " + what;
  throw Error(msg);
}

struct Token {
  std::string text;
  std::size_t column;  // 1-based position within the line
};

// Splits a line into whitespace-separated raw tokens, keeping bracketed
// disjunctions (which may contain spaces) together.
std::vector<Token> tokenize(std::string_view line, std::string_view context) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    std::size_t j = i;
    if (line[i] == '[') {
      while (j < line.size() && line[j] != ']') ++j;
      if (j == line.size()) parseFail(context, i + 1, "unterminated '['");
      ++j;  // include ']'
      // Optional exponent suffix.
      while (j < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[j]))) {
        ++j;
      }
    } else {
      while (j < line.size() &&
             !std::isspace(static_cast<unsigned char>(line[j]))) {
        ++j;
      }
    }
    tokens.push_back({std::string(line.substr(i, j - i)), i + 1});
    i = j;
  }
  return tokens;
}

Count parseExponent(std::string_view text, std::string_view context,
                    const Token& token) {
  if (text.empty()) {
    parseFail(context, token.column, "empty exponent in '" + token.text + "'");
  }
  Count value = 0;
  for (char ch : text) {
    if (!std::isdigit(static_cast<unsigned char>(ch))) {
      parseFail(context, token.column,
                "bad exponent '" + std::string(text) + "' in '" + token.text +
                    "'");
    }
    // Checked before the multiply, so the accumulator never overflows.
    const Count digit = ch - '0';
    if (value > ((Count{1} << 62) - digit) / 10) {
      parseFail(context, token.column,
                "exponent too large in '" + token.text + "'");
    }
    value = value * 10 + digit;
  }
  return value;
}

Configuration parseConfigurationImpl(std::string_view line, Alphabet& alphabet,
                                     std::string_view context) {
  std::vector<Group> groups;
  for (const Token& token : tokenize(line, context)) {
    std::string_view body = token.text;
    Count count = 1;
    if (auto caret = body.rfind('^'); caret != std::string_view::npos) {
      count = parseExponent(body.substr(caret + 1), context, token);
      body = body.substr(0, caret);
    }
    LabelSet set;
    if (!body.empty() && body.front() == '[') {
      if (body.size() < 2 || body.back() != ']') {
        parseFail(context, token.column,
                  "malformed disjunction '" + token.text + "'");
      }
      const std::string_view inner = body.substr(1, body.size() - 2);
      if (inner.find(' ') != std::string_view::npos) {
        std::istringstream iss{std::string(inner)};
        std::string name;
        while (iss >> name) set.insert(alphabet.getOrAdd(name));
      } else {
        // Compact form: every character is a single-character label name.
        for (char ch : inner) {
          set.insert(alphabet.getOrAdd(std::string_view(&ch, 1)));
        }
      }
    } else {
      if (body.empty()) {
        parseFail(context, token.column, "empty token '" + token.text + "'");
      }
      set.insert(alphabet.getOrAdd(body));
    }
    if (set.empty()) {
      parseFail(context, token.column,
                "empty disjunction in '" + token.text + "'");
    }
    groups.push_back({set, count});
  }
  if (groups.empty()) {
    parseFail(context, 1, "empty configuration line");
  }
  return Configuration(std::move(groups));
}

}  // namespace

Configuration parseConfiguration(std::string_view line, Alphabet& alphabet) {
  return parseConfigurationImpl(line, alphabet, {});
}

void Problem::validate() const {
  if (edge.degree() != 2) throw Error("Problem: edge constraint degree != 2");
  if (node.degree() < 1) throw Error("Problem: node constraint degree < 1");
  const LabelSet known = alphabet.all();
  if (!node.support().subsetOf(known) || !edge.support().subsetOf(known)) {
    throw Error("Problem: constraint mentions label outside the alphabet");
  }
}

Problem Problem::parse(std::string_view nodeConstraint,
                       std::string_view edgeConstraint) {
  Problem p;
  auto parseLines = [&](std::string_view text, const char* section) {
    std::vector<Configuration> configs;
    std::istringstream iss{std::string(text)};
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(iss, line)) {
      ++lineNo;
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      if (line.starts_with('#')) continue;
      const std::string context =
          std::string(section) + " line " + std::to_string(lineNo);
      configs.push_back(parseConfigurationImpl(line, p.alphabet, context));
      if (configs.size() > 1 &&
          configs.back().degree() != configs.front().degree()) {
        throw Error("parse: " + context + ": configuration degree " +
                    std::to_string(configs.back().degree()) +
                    " differs from the section's first configuration (" +
                    std::to_string(configs.front().degree()) + ")");
      }
    }
    return configs;
  };
  auto nodeConfigs = parseLines(nodeConstraint, "node constraint");
  auto edgeConfigs = parseLines(edgeConstraint, "edge constraint");
  if (nodeConfigs.empty()) throw Error("parse: no node configurations");
  if (edgeConfigs.empty()) throw Error("parse: no edge configurations");
  const Count delta = nodeConfigs.front().degree();
  p.node = Constraint(delta, std::move(nodeConfigs));
  p.edge = Constraint(2, std::move(edgeConfigs));
  p.validate();
  return p;
}

std::string Problem::render() const {
  return node.render(alphabet) + "\n\n" + edge.render(alphabet) + "\n";
}

Problem misProblem(Count delta) {
  if (delta < 2) throw Error("misProblem: delta must be >= 2");
  Problem p;
  const Label m = p.alphabet.add("M");
  const Label pp = p.alphabet.add("P");
  const Label o = p.alphabet.add("O");
  p.node = Constraint(
      delta, {Configuration({{LabelSet{m}, delta}}),
              Configuration({{LabelSet{pp}, 1}, {LabelSet{o}, delta - 1}})});
  p.edge = Constraint(2, {Configuration({{LabelSet{m}, 1}, {LabelSet{pp, o}, 1}}),
                          Configuration({{LabelSet{o}, 2}})});
  p.validate();
  return p;
}

Problem sinklessOrientationProblem(Count delta) {
  if (delta < 2) throw Error("sinklessOrientationProblem: delta must be >= 2");
  Problem p;
  const Label i = p.alphabet.add("I");
  const Label o = p.alphabet.add("O");
  p.node = Constraint(
      delta, {Configuration({{LabelSet{o}, 1}, {LabelSet{i, o}, delta - 1}})});
  p.edge = Constraint(2, {Configuration({{LabelSet{i}, 1}, {LabelSet{o}, 1}})});
  p.validate();
  return p;
}

}  // namespace relb::re
