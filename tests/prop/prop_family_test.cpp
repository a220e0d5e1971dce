// Property suite for the family-definition DSL (src/family) and its
// sampling front-end (gen/family_sample):
//
//   * random structurally-valid definitions round-trip through
//     renderFamilyText / parseFamilyText, and the canonical serialization
//     is a fixpoint;
//   * instantiation is deterministic, including across a text round-trip of
//     the definition;
//   * the DSL transcription of Pi_Delta(a, x) canonicalizes identically to
//     core::familyProblem over the full (a, x, Delta <= 7) grid;
//   * one R / Rbar step on DSL-instantiated problems is bit-identical at
//     thread widths 1, 2, and 8 (independent engine cores, so the engine
//     cannot serve one width's answer to another from cache).
//
// The suites follow tests/prop conventions: fixed per-case seeds shifted by
// RELB_TEST_SEED, iteration counts scaled by RELB_PROP_ITERS, >= 200 cases
// per oracle at the defaults.  The random-definition generator here feeds
// the parser arc; problem-shaped oracles draw real instantiations through
// gen::randomFamilyProblem instead of gen::randomProblem, so the cases have
// the *structure* of published families rather than white noise.
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/family.hpp"
#include "family/builtin.hpp"
#include "family/text.hpp"
#include "gen/family_sample.hpp"
#include "prop.hpp"
#include "re/canonical.hpp"
#include "re/engine.hpp"

namespace relb::prop {
namespace {

using family::Cond;
using family::Expr;
using family::FamilyDef;

// ---------------------------------------------------------------------------
// Random definition generator (structural validity by construction: distinct
// parameter names, comprehension variables disjoint from parameters,
// non-empty alphabet and constraint templates).

const std::vector<std::string>& paramPool() {
  static const std::vector<std::string> pool{"delta", "a", "x", "k", "m"};
  return pool;
}

Expr randomExpr(std::mt19937& rng, const std::vector<std::string>& vars,
                int depth) {
  std::uniform_int_distribution<int> kind(0, depth > 0 ? 6 : 1);
  switch (kind(rng)) {
    case 0: {
      std::uniform_int_distribution<int> value(0, 9);
      return Expr::integer(value(rng));
    }
    case 1: {
      if (vars.empty()) return Expr::integer(1);
      std::uniform_int_distribution<std::size_t> pick(0, vars.size() - 1);
      return Expr::variable(vars[pick(rng)]);
    }
    default: {
      Expr e;
      std::uniform_int_distribution<int> op(0, 4);
      switch (op(rng)) {
        case 0: e.kind = Expr::Kind::kAdd; break;
        case 1: e.kind = Expr::Kind::kSub; break;
        case 2: e.kind = Expr::Kind::kMul; break;
        case 3: e.kind = Expr::Kind::kDiv; break;
        default: e.kind = Expr::Kind::kNeg; break;
      }
      e.args.push_back(randomExpr(rng, vars, depth - 1));
      if (e.kind != Expr::Kind::kNeg) {
        e.args.push_back(randomExpr(rng, vars, depth - 1));
      }
      return e;
    }
  }
}

Cond randomCond(std::mt19937& rng, const std::vector<std::string>& vars) {
  static const std::vector<std::string> ops{"==", "!=", "<=", ">=", "<", ">"};
  Cond cond;
  std::uniform_int_distribution<int> terms(1, 2);
  const int n = terms(rng);
  for (int i = 0; i < n; ++i) {
    Cond::Cmp cmp;
    cmp.lhs = randomExpr(rng, vars, 1);
    std::uniform_int_distribution<std::size_t> pick(0, ops.size() - 1);
    cmp.op = ops[pick(rng)];
    cmp.rhs = randomExpr(rng, vars, 1);
    cond.terms.push_back(std::move(cmp));
  }
  return cond;
}

family::LabelRef randomRef(std::mt19937& rng, const FamilyDef& def,
                           const std::vector<std::string>& vars) {
  std::uniform_int_distribution<std::size_t> pick(0, def.alphabet.size() - 1);
  const family::AlphabetItem& item = def.alphabet[pick(rng)];
  family::LabelRef ref;
  ref.name = item.name;
  if (item.comprehension) {
    ref.indexed = true;
    ref.index = randomExpr(rng, vars, 1);
  }
  return ref;
}

family::SetAtom randomAtom(std::mt19937& rng, const FamilyDef& def,
                           const std::vector<std::string>& vars) {
  family::SetAtom atom;
  std::uniform_int_distribution<int> shape(0, 3);
  switch (shape(rng)) {
    case 0:  // single reference
      atom.refs.push_back(randomRef(rng, def, vars));
      break;
    case 1: {  // explicit set
      std::uniform_int_distribution<int> width(1, 3);
      const int n = width(rng);
      for (int i = 0; i < n; ++i) atom.refs.push_back(randomRef(rng, def, vars));
      break;
    }
    default: {  // set comprehension over an indexed label
      family::LabelRef ref;
      ref.name = def.alphabet.back().name;
      ref.indexed = true;
      atom.comprehension = true;
      atom.var = "j";
      std::vector<std::string> inner = vars;
      inner.push_back(atom.var);
      ref.index = Expr::variable(atom.var);
      atom.refs.push_back(std::move(ref));
      atom.lo = randomExpr(rng, vars, 1);
      atom.hi = randomExpr(rng, vars, 1);
      std::bernoulli_distribution guarded(0.5);
      if (guarded(rng)) atom.cond = randomCond(rng, inner);
      break;
    }
  }
  return atom;
}

family::ConfigTemplate randomTemplate(std::mt19937& rng, const FamilyDef& def,
                                      std::vector<std::string> vars) {
  family::ConfigTemplate tmpl;
  std::bernoulli_distribution comprehend(0.3);
  if (comprehend(rng)) {
    tmpl.comprehension = true;
    tmpl.var = "i";
    tmpl.lo = randomExpr(rng, vars, 1);
    tmpl.hi = randomExpr(rng, vars, 1);
    std::bernoulli_distribution guarded(0.3);
    if (guarded(rng)) tmpl.cond = randomCond(rng, vars);
    vars.push_back(tmpl.var);
  }
  std::uniform_int_distribution<int> groups(1, 3);
  const int n = groups(rng);
  for (int g = 0; g < n; ++g) {
    family::GroupTemplate group;
    group.atom = randomAtom(rng, def, vars);
    std::uniform_int_distribution<int> countShape(0, 2);
    switch (countShape(rng)) {
      case 0: group.count = Expr::integer(1); break;
      case 1: group.count = randomExpr(rng, vars, 0); break;
      default: group.count = randomExpr(rng, vars, 2); break;
    }
    tmpl.groups.push_back(std::move(group));
  }
  return tmpl;
}

FamilyDef randomDef(std::mt19937& rng) {
  FamilyDef def;
  def.name = "prop_family";
  std::bernoulli_distribution coin(0.5);
  if (coin(rng)) def.title = "randomized definition under test";
  if (coin(rng)) def.model = "det-PN high-girth";
  if (coin(rng)) def.cite = "tests/prop";

  std::uniform_int_distribution<int> paramCount(1, 3);
  const int params = paramCount(rng);
  std::vector<std::string> vars;
  for (int i = 0; i < params; ++i) {
    family::ParamDecl decl;
    decl.name = paramPool()[static_cast<std::size_t>(i)];
    decl.lo = randomExpr(rng, vars, 1);
    decl.hi = randomExpr(rng, vars, 1);
    if (coin(rng)) decl.defaultValue = randomExpr(rng, vars, 1);
    vars.push_back(decl.name);
    def.params.push_back(std::move(decl));
  }
  if (coin(rng)) def.requirements.push_back(randomCond(rng, vars));
  if (coin(rng)) def.bound = randomExpr(rng, vars, 1);

  static const std::vector<std::string> labelNames{"A", "B", "C", "D"};
  std::uniform_int_distribution<int> alphaCount(1, 3);
  const int plain = alphaCount(rng);
  for (int i = 0; i < plain; ++i) {
    family::AlphabetItem item;
    item.name = labelNames[static_cast<std::size_t>(i)];
    def.alphabet.push_back(std::move(item));
  }
  {
    // Always end with one indexed comprehension so randomAtom's set
    // comprehensions have an indexed label to range over.
    family::AlphabetItem item;
    item.name = "Z";
    item.comprehension = true;
    item.var = "i";
    item.lo = randomExpr(rng, vars, 1);
    item.hi = randomExpr(rng, vars, 1);
    if (coin(rng)) {
      std::vector<std::string> inner = vars;
      inner.push_back(item.var);
      item.cond = randomCond(rng, inner);
    }
    def.alphabet.push_back(std::move(item));
  }

  std::uniform_int_distribution<int> tmplCount(1, 3);
  const int nodeTemplates = tmplCount(rng);
  for (int i = 0; i < nodeTemplates; ++i) {
    def.node.push_back(randomTemplate(rng, def, vars));
  }
  const int edgeTemplates = tmplCount(rng);
  for (int i = 0; i < edgeTemplates; ++i) {
    def.edge.push_back(randomTemplate(rng, def, vars));
  }
  return def;
}

// The builtin a case index maps to, so every suite covers all four evenly.
const FamilyDef& builtinFor(int index) {
  const auto& all = family::builtinFamilies();
  return all[static_cast<std::size_t>(index) % all.size()];
}

// ---------------------------------------------------------------------------

TEST(PropFamily, RandomDefinitionsRoundTripThroughText) {
  const int iterations = envIterations(200);
  for (int i = 0; i < iterations; ++i) {
    const unsigned seed =
        testsupport::effectiveSeed(41000u + static_cast<unsigned>(i));
    std::mt19937 rng(seed);
    const FamilyDef def = randomDef(rng);
    std::string rendered;
    FamilyDef reparsed;
    try {
      rendered = family::renderFamilyText(def);
      reparsed = family::parseFamilyText(rendered);
    } catch (const re::Error& e) {
      FAIL() << "case " << i << " (seed " << seed
             << "): canonical text of a structurally valid definition "
                "failed to round-trip: "
             << e.what() << "\n"
             << rendered;
    }
    ASSERT_EQ(reparsed, def) << "case " << i << " (seed " << seed
                             << "): round-trip changed the definition\n"
                             << rendered;
    ASSERT_EQ(family::renderFamilyText(reparsed), rendered)
        << "case " << i << " (seed " << seed
        << "): canonical serialization is not a fixpoint";
  }
}

TEST(PropFamily, InstantiationIsDeterministicAcrossTextRoundTrip) {
  const int iterations = envIterations(200);
  int instantiated = 0;
  for (int i = 0; i < iterations; ++i) {
    const unsigned seed =
        testsupport::effectiveSeed(42000u + static_cast<unsigned>(i));
    std::mt19937 rng(seed);
    const FamilyDef& def = builtinFor(i);
    gen::FamilySampleOptions options;
    options.minDelta = 1;
    options.maxDelta = 5;
    const family::Env params = gen::randomFamilyParams(rng, def, options);
    const re::Problem p = family::instantiate(def, params);
    ASSERT_EQ(family::instantiate(def, params), p)
        << def.name << " case " << i << " (seed " << seed << ")";
    const FamilyDef reparsed =
        family::parseFamilyText(family::renderFamilyText(def));
    ASSERT_EQ(family::instantiate(reparsed, params), p)
        << def.name << " case " << i << " (seed " << seed
        << "): instantiation drifted across a text round-trip";
    ++instantiated;
  }
  EXPECT_EQ(instantiated, iterations);
}

TEST(PropFamily, DslPiCanonicalizesIdenticallyToCoreAcrossGrid) {
  const FamilyDef pi = *family::findBuiltin("pi");
  int cases = 0;
  for (re::Count delta = 1; delta <= 7; ++delta) {
    for (re::Count a = 0; a <= delta; ++a) {
      for (re::Count x = 0; x <= delta; ++x) {
        const re::Problem dsl = family::instantiateWithDefaults(
            pi, {{"delta", delta}, {"a", a}, {"x", x}});
        const re::Problem hard = core::familyProblem(delta, a, x);
        ASSERT_EQ(dsl, hard) << "delta=" << delta << " a=" << a << " x=" << x;
        const auto canonDsl = re::canonicalize(dsl);
        const auto canonHard = re::canonicalize(hard);
        ASSERT_EQ(canonDsl.hash, canonHard.hash)
            << "delta=" << delta << " a=" << a << " x=" << x;
        ASSERT_EQ(canonDsl.problem, canonHard.problem)
            << "delta=" << delta << " a=" << a << " x=" << x;
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 200);  // the full grid is the iteration count here
}

TEST(PropFamily, SpeedupStepsAreBitIdenticalAcrossThreadWidths) {
  const int iterations = envIterations(200);
  for (int i = 0; i < iterations; ++i) {
    const unsigned seed =
        testsupport::effectiveSeed(43000u + static_cast<unsigned>(i));
    std::mt19937 rng(seed);
    gen::FamilySampleOptions options;
    options.minDelta = 2;
    options.maxDelta = 3;
    const re::Problem p =
        gen::randomFamilyProblem(rng, builtinFor(i), options);

    // Separate cores per width: a shared core would serve width 1's cached
    // result to widths 2 and 8 and the comparison would check nothing.
    std::vector<re::Problem> rProblems;
    std::vector<re::Problem> rbarProblems;
    for (const int width : {1, 2, 8}) {
      re::StepOptions stepOptions;
      stepOptions.numThreads = width;
      re::EngineSession session(std::make_shared<re::EngineCore>(),
                                stepOptions);
      try {
        const re::StepResult r = session.applyR(p);
        const re::StepResult rbar = session.applyRbar(r.problem);
        rProblems.push_back(r.problem);
        rbarProblems.push_back(rbar.problem);
      } catch (const re::Error&) {
        // Engine guard: must trip identically at every width, which the
        // size mismatch below would expose.
        break;
      }
    }
    ASSERT_TRUE(rProblems.size() == 0 || rProblems.size() == 3)
        << builtinFor(i).name << " case " << i << " (seed " << seed
        << "): engine guard tripped at some widths only";
    for (std::size_t w = 1; w < rProblems.size(); ++w) {
      ASSERT_EQ(rProblems[w], rProblems[0])
          << builtinFor(i).name << " case " << i << " (seed " << seed
          << "): R differs between width 1 and width " << (w == 1 ? 2 : 8);
      ASSERT_EQ(rbarProblems[w], rbarProblems[0])
          << builtinFor(i).name << " case " << i << " (seed " << seed
          << "): Rbar differs between width 1 and width " << (w == 1 ? 2 : 8);
    }
  }
}

}  // namespace
}  // namespace relb::prop
