// Rough-set based search-space reduction (paper §III.B.4, Fig. 5).
//
// From the most recent population, the non-dominated solutions mark the
// interesting area; the dominated solutions surrounding them provide the
// boundary coordinates. The reduced space is the largest hyper-rectangle
// limited by dominated points that encloses all non-dominated points.
// Unlike model-based reduction schemes, this requires no domain knowledge —
// only the already-evaluated configurations.
#pragma once

#include "core/pareto.h"
#include "tuning/search_space.h"

#include <span>

namespace motune::opt {

/// Computes the reduced boundary of `population`, whose non-dominated
/// members are `firstFront` (ascending indices, as ParetoRanking::front(0)
/// and GDE3::firstFront() give them), into `reduced`; `full` bounds the
/// result (and supplies limits along dimensions where no dominated point
/// lies outside the non-dominated span). Allocates nothing once `reduced`
/// has full's dimensions.
void roughSetReduce(std::span<const Individual> population,
                    std::span<const std::size_t> firstFront,
                    const tuning::Boundary& full, tuning::Boundary& reduced);

/// The same, ranking `population` itself.
tuning::Boundary roughSetReduce(std::span<const Individual> population,
                                const tuning::Boundary& full);

} // namespace motune::opt
