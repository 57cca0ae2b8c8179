// Pareto-set machinery: dominance, non-dominated sorting, crowding
// distance, and the Individual type shared by every optimizer.
//
// Definitions follow the paper (§III.B.1): configuration c1 dominates c2 if
// it is no worse in every objective and strictly better in at least one;
// a Pareto set is a set of mutually non-dominated configurations.
#pragma once

#include "tuning/search_space.h"

#include <span>
#include <vector>

namespace motune::opt {

using tuning::Config;
using tuning::Objectives;

/// One evaluated configuration. `genome` is the continuous representation
/// the variation operators work on; `config` is its projection onto the
/// integer search space (what was actually evaluated).
struct Individual {
  std::vector<double> genome;
  Config config;
  Objectives objectives;
};

/// True if a dominates b (all objectives minimized).
bool dominates(const Objectives& a, const Objectives& b);

/// Indices of the non-dominated members (first front) of `pop`, ascending.
/// Two objectives: one sorted sweep, O(N log N); otherwise O(m N^2).
std::vector<std::size_t> nonDominatedIndices(std::span<const Individual> pop);

/// The non-dominated subset itself, with duplicate configurations removed.
std::vector<Individual> paretoFront(std::span<const Individual> pop);

/// Incremental paretoFront: adds `candidate` unless a member dominates it
/// or shares its config, dropping the members it dominates; survivors keep
/// insertion order. Folding a sequence through it yields the sequence's
/// paretoFront when equal configs carry equal objectives (memoization).
void insertIntoFront(std::vector<Individual>& front,
                     const Individual& candidate);

/// Fast non-dominated sort (Deb et al.): partitions indices into fronts,
/// best first.
///
/// The order within each front is part of the contract, because
/// truncation keeps whole fronts in this order and the population's order
/// drives DE index draws, immigrant targets and migrant slots, hence the
/// RNG stream and every search trajectory. It is Deb's peeling order:
/// front 0 in ascending index order; front k+1 ordered by the position,
/// in front k's order, of each member's last dominator in front k, then by
/// index.
///
/// Two objectives without NaN (every bench and paper search): O(N log N),
/// ranks by binary search over each front's minimum f1, then the peeling
/// order rebuilt from the f0-sorted staircases. Any other m, or a NaN:
/// Deb's pairwise peeling, O(m N^2). Both give the same fronts.
std::vector<std::vector<std::size_t>>
nonDominatedSort(std::span<const Individual> pop);

/// NSGA-II crowding distance for the members of one front (index-aligned
/// with `front`); boundary points get +infinity.
std::vector<double> crowdingDistance(std::span<const Individual> pop,
                                     const std::vector<std::size_t>& front);

/// Shrinks `pop` to `target` members by rank, breaking ties within the
/// split front by descending crowding distance (GDE3 / NSGA-II truncation).
void truncateByRankAndCrowding(std::vector<Individual>& pop,
                               std::size_t target);

} // namespace motune::opt
