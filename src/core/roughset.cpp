#include "core/roughset.h"

#include "support/check.h"

#include <algorithm>
#include <limits>

namespace motune::opt {

void roughSetReduce(std::span<const Individual> population,
                    std::span<const std::size_t> firstFront,
                    const tuning::Boundary& full, tuning::Boundary& reduced) {
  MOTUNE_CHECK(!population.empty());
  MOTUNE_DCHECK(std::is_sorted(firstFront.begin(), firstFront.end()));
  reduced = full;
  // Without dominated witnesses there is nothing to cut away.
  if (firstFront.size() == population.size()) return;

  for (std::size_t d = 0; d < full.dims(); ++d) {
    // Span of the non-dominated solutions along dimension d.
    double ndLo = std::numeric_limits<double>::infinity();
    double ndHi = -std::numeric_limits<double>::infinity();
    for (std::size_t i : firstFront) {
      const auto v = static_cast<double>(population[i].config[d]);
      ndLo = std::min(ndLo, v);
      ndHi = std::max(ndHi, v);
    }

    // Tightest dominated coordinates strictly outside that span: they
    // become the edges of the largest enclosing hyper-rectangle. The
    // front is ascending, so one cursor tells its members apart.
    double cutLo = full.lo[d];
    double cutHi = full.hi[d];
    auto next = firstFront.begin();
    for (std::size_t i = 0; i < population.size(); ++i) {
      if (next != firstFront.end() && *next == i) {
        ++next;
        continue;
      }
      const auto v = static_cast<double>(population[i].config[d]);
      if (v < ndLo) cutLo = std::max(cutLo, v);
      if (v > ndHi) cutHi = std::min(cutHi, v);
    }
    reduced.lo[d] = cutLo;
    reduced.hi[d] = cutHi;
  }
}

tuning::Boundary roughSetReduce(std::span<const Individual> population,
                                const tuning::Boundary& full) {
  MOTUNE_CHECK(!population.empty());
  tuning::Boundary reduced;
  roughSetReduce(population, nonDominatedIndices(population), full, reduced);
  return reduced;
}

} // namespace motune::opt
