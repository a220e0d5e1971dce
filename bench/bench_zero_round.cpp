// T4 -- Lemmas 12 and 15: zero-round solvability and the randomized failure
// probability bound.
//
// Part A prints the exact 0-round solvability boundary of the family
// (solvable iff a = 0 or x = Delta).
//
// Part B searches for the *best* randomized 0-round strategy on the
// symmetric-port instance family: a strategy is a distribution over pure
// outputs (a node-configuration word assigned to ports); two adjacent nodes
// draw independently and fail if some shared port carries an incompatible
// label pair.  Replicator dynamics minimizes the failure probability; the
// minimum found must stay above the analytic bound 1/(q Delta)^2 of
// Lemma 15.
#include <random>

#include "bench_util.hpp"
#include "core/family.hpp"
#include "re/zero_round.hpp"

namespace {

using namespace relb;

// All pure strategies: assignments of a node-constraint word to the Delta
// ports (ports are interchangeable only up to the adversarial coloring; on
// the symmetric-port family the port index matters, so enumerate all
// distinct port->label functions whose multiset is an allowed word).
std::vector<std::vector<re::Label>> pureStrategies(const re::Problem& p) {
  std::vector<std::vector<re::Label>> out;
  const int delta = static_cast<int>(p.delta());
  std::vector<re::Label> assignment(static_cast<std::size_t>(delta));
  std::function<void(int, re::Word&)> rec = [&](int port, re::Word& used) {
    if (port == delta) {
      if (p.node.containsWord(used)) out.push_back(assignment);
      return;
    }
    for (re::Label l = 0; l < p.alphabet.size(); ++l) {
      assignment[static_cast<std::size_t>(port)] = l;
      ++used[l];
      // Prune: partial word must extend to some configuration (cheap
      // overapproximation: skip exact check, full check at the leaf).
      rec(port + 1, used);
      --used[l];
    }
  };
  re::Word used(static_cast<std::size_t>(p.alphabet.size()), 0);
  rec(0, used);
  return out;
}

// Failure indicator for two independent draws on one edge of the
// symmetric-port family: some port carries an incompatible pair.
bool pairFails(const re::Problem& p, const std::vector<re::Label>& s1,
               const std::vector<re::Label>& s2) {
  for (std::size_t port = 0; port < s1.size(); ++port) {
    re::Word w(static_cast<std::size_t>(p.alphabet.size()), 0);
    ++w[s1[port]];
    ++w[s2[port]];
    if (!p.edge.containsWord(w)) return true;
  }
  return false;
}

}  // namespace

int main() {
  using namespace relb;
  bench::banner("Lemma 12: zero-round solvability boundary of the family");
  {
    const re::Count delta = 5;
    bench::Table t({"a \\ x", "0", "1", "2", "3", "4", "5"});
    bool boundaryOk = true;
    for (re::Count a = 0; a <= delta; ++a) {
      std::vector<std::string> row{std::to_string(a)};
      for (re::Count x = 0; x <= delta; ++x) {
        const bool solvable = re::zeroRoundSolvableSymmetricPorts(
            core::familyProblem(delta, a, x));
        boundaryOk &= solvable == (a == 0 || x == delta);
        row.push_back(solvable ? "solvable" : "hard");
      }
      t.row(row[0], row[1], row[2], row[3], row[4], row[5], row[6]);
    }
    t.print();
    bench::verdict(boundaryOk,
                   "solvable exactly when a = 0 or x = Delta (Lemma 12)");
  }

  bench::banner("Lemma 15: best randomized 0-round strategy vs the bound");
  bench::Table t({"Delta", "a", "x", "#pure strategies", "analytic bound",
                  "best found failure", "bound holds"});
  bool allPass = true;
  for (const auto& [delta, a, x] : std::vector<std::array<re::Count, 3>>{
           {2, 1, 0}, {2, 2, 1}, {3, 2, 0}, {3, 3, 1}, {4, 3, 1}}) {
    const auto p = core::familyProblem(delta, a, x);
    const auto strategies = pureStrategies(p);
    const double bound = re::randomizedFailureLowerBound(p);

    // Pairwise failure matrix.
    const std::size_t m = strategies.size();
    std::vector<std::vector<double>> fail(m, std::vector<double>(m, 0.0));
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) {
        fail[i][j] = pairFails(p, strategies[i], strategies[j]) ? 1.0 : 0.0;
      }
    }
    // Replicator dynamics from several random starts.
    std::mt19937 rng(7);
    double best = 1.0;
    for (int start = 0; start < 8; ++start) {
      std::vector<double> prob(m);
      std::uniform_real_distribution<double> uni(0.1, 1.0);
      double sum = 0;
      for (auto& v : prob) sum += (v = uni(rng));
      for (auto& v : prob) v /= sum;
      for (int iter = 0; iter < 2000; ++iter) {
        // fitness_i = 1 - (F p)_i, renormalize.
        std::vector<double> fp(m, 0.0);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = 0; j < m; ++j) fp[i] += fail[i][j] * prob[j];
        }
        double z = 0;
        for (std::size_t i = 0; i < m; ++i) {
          prob[i] *= (1.001 - fp[i]);
          z += prob[i];
        }
        for (auto& v : prob) v /= z;
      }
      double value = 0;
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          value += prob[i] * prob[j] * fail[i][j];
        }
      }
      best = std::min(best, value);
    }
    const bool holds = best >= bound - 1e-12;
    allPass &= holds;
    t.row(delta, a, x, m, bound, best, holds);
  }
  t.print();
  bench::verdict(allPass,
                 "optimized strategies never beat the 1/(q Delta)^2 bound");
  return 0;
}
