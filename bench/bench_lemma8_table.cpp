// T2 -- Lemma 8: Rbar(R(Pi_Delta(a,x))) solves Pi+_Delta(a,x) in 0 rounds.
// Exact (full Rbar computation) for small Delta; proof-script (symbolic,
// Delta-independent cost) for large Delta; the two cross-validate.
#include "bench_util.hpp"
#include "core/lemma8.hpp"

int main() {
  using namespace relb;
  bench::banner("Lemma 8: speedup of the family, exact vs proof-script");

  std::cout << "Pi_rel relaxation targets (Delta=8, a=5, x=1), renamed:\n"
            << core::relProblemRenamed(8, 5, 1).render() << "\n";

  // Exhaustive exact grid (full Rbar(R(.)) computation).
  {
    bench::Stopwatch sw;
    int checks = 0;
    bool pass = true;
    for (re::Count delta = 2; delta <= 7; ++delta) {
      for (re::Count a = 2; a <= delta; ++a) {
        for (re::Count x = 0; x + 2 <= a; ++x) {
          const auto exact = core::verifyLemma8Exact(delta, a, x);
          const auto symbolic = core::verifyLemma8Symbolic(delta, a, x);
          pass &= exact.ok && symbolic.ok;
          ++checks;
        }
      }
    }
    std::cout << "exact grid Delta in [2,7]: " << checks
              << " points, exact and symbolic both verified = "
              << (pass ? "yes" : "no") << " (" << sw.ms() << " ms)\n\n";
    bench::verdict(pass, "exact Rbar(R(.)) relaxes to Pi_rel ~ Pi+ on the "
                         "whole small grid");
  }

  // Symbolic proof-script at scale.
  bench::Table t({"Delta", "a", "x", "verified", "time (ms)"});
  bool allPass = true;
  for (const auto& [delta, a, x] : std::vector<std::array<re::Count, 3>>{
           {64, 32, 3},
           {1 << 10, 1 << 7, 11},
           {1 << 16, 1 << 12, 63},
           {1 << 20, 1 << 18, 37},
           {re::Count{1} << 30, re::Count{1} << 25, 999},
           {re::Count{1} << 40, re::Count{1} << 20, 12345}}) {
    bench::Stopwatch sw;
    const auto result = core::verifyLemma8Symbolic(delta, a, x);
    allPass &= result.ok;
    t.row(delta, a, x, result.ok, sw.ms());
  }
  t.print();
  bench::verdict(allPass, "Lemma 8 proof script verified at every scale");
  return 0;
}
