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
/// The same, recycling storage: dropped members move to `spare`, and the
/// candidate's copy reuses a spare member's buffers when there is one.
void insertIntoFront(std::vector<Individual>& front,
                     const Individual& candidate,
                     std::vector<Individual>& spare);

/// Fast non-dominated sort (Deb et al.) into flat buffers the ranking
/// keeps between calls: once it has ranked a population of some size,
/// ranking one of that size again allocates nothing. The fronts are one
/// index array plus offsets, best front first.
///
/// The order within each front is part of the contract, because
/// truncation keeps whole fronts in this order and the population's order
/// drives DE index draws, immigrant targets and migrant slots, hence the
/// RNG stream and every search trajectory. It is Deb's peeling order:
/// front 0 in ascending index order; front k+1 ordered by the position,
/// in front k's order, of each member's last dominator in front k, then by
/// index.
///
/// Two objectives without NaN (every bench and paper search): O(N log N).
/// One sort of contiguous (f0, f1, index) keys; ranks by binary search
/// over each front's minimum f1; then the peeling order rebuilt from the
/// f0-sorted staircases. When only the first front is needed it is one
/// sweep of the sorted keys. Any other m, or a NaN: Deb's pairwise
/// peeling, O(m N^2). Both give the same fronts.
///
/// Truncation keeps every front before the split one whole, so each kept
/// member of a later front keeps a dominator: the first front of the
/// population that survivors() builds is exactly its first
/// min(front(0).size(), target) members.
class ParetoRanking {
public:
  /// Ranks `pop`. The two-objective path stops after the first fronts
  /// that hold at least `needed` members; the pairwise path ranks all.
  void rank(std::span<const Individual> pop, std::size_t needed = kAll);
  /// The same over row-major objectives: member i's m values are
  /// flat[i * m, i * m + m).
  void rank(std::span<const double> flat, std::size_t m,
            std::size_t needed = kAll);

  /// Number of fronts ranked (0 for an empty population).
  std::size_t frontCount() const { return start_.size() - 1; }
  /// Front k's member indices, in peeling order.
  std::span<const std::size_t> front(std::size_t k) const {
    return {order_.data() + start_[k], start_[k + 1] - start_[k]};
  }
  /// Fronts k, k + 1, ... concatenated, in order.
  std::span<const std::size_t> frontsFrom(std::size_t k) const {
    return {order_.data() + start_[k], order_.size() - start_[k]};
  }

  /// The `target` members a truncation keeps, in the order it keeps them:
  /// whole fronts in ranking order, then the split front's members by
  /// descending crowding distance. Needs a rank() of more than `target`
  /// members with `needed` >= `target`.
  std::span<const std::size_t> survivors(std::size_t target);

  /// Every ranked member, worst first: fronts from last to first, each
  /// front by ascending crowding distance, ties in the front's order (the
  /// island model's replacement order). Needs a rank() of every front.
  std::span<const std::size_t> worstFirst();

  static constexpr std::size_t kAll = static_cast<std::size_t>(-1);

private:
  void rankRows(std::size_t n, std::size_t needed);
  void rankTwo(std::size_t n, std::size_t needed);
  void rankPairwise(std::size_t n);

  struct Key {
    double f0, f1;
    std::size_t index;
  };
  std::size_t m_ = 0;
  std::vector<double> f_;           ///< row-major objectives
  std::vector<std::size_t> order_;  ///< fronts, concatenated
  std::vector<std::size_t> start_{0}; ///< front k is [start_[k], start_[k+1])
  // Two-objective scratch.
  std::vector<Key> keys_;                   ///< sorted by (f0, f1, index)
  std::vector<std::size_t> rankOf_, pos_;   ///< by member index
  std::vector<double> minF1_;               ///< per front
  std::vector<std::size_t> stairs_, stairStart_; ///< key positions by front
  std::vector<std::pair<std::size_t, std::size_t>> keyed_;
  std::vector<std::size_t> window_;
  // Truncation scratch; selected_ holds survivors() or worstFirst().
  std::vector<double> dist_;
  std::vector<std::size_t> byDistance_, sortScratch_, selected_;
  std::vector<std::pair<double, std::size_t>> distanceKeys_;
};

/// The fronts of `pop` (ParetoRanking) as separate index lists.
std::vector<std::vector<std::size_t>>
nonDominatedSort(std::span<const Individual> pop);

/// NSGA-II crowding distance for the members of one front (index-aligned
/// with `front`); boundary points get +infinity.
std::vector<double> crowdingDistance(std::span<const Individual> pop,
                                     std::span<const std::size_t> front);

/// Shrinks `pop` to `target` members by rank, breaking ties within the
/// split front by descending crowding distance (GDE3 / NSGA-II truncation).
void truncateByRankAndCrowding(std::vector<Individual>& pop,
                               std::size_t target);

} // namespace motune::opt
