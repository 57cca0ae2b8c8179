// Loop-nest footprint analysis.
//
// For every nesting level l, this module computes the number of distinct
// bytes of each array touched by one complete execution of loops l..D with
// the outer loops held fixed ("the footprint at level l"), with cache-line
// granularity. The cost model (costmodel.h) combines these footprints with
// cache capacities to estimate per-level traffic — the standard
// working-set / distinct-lines approach (Ferrante et al.), which is what
// makes the model respond to tile sizes and shared-cache capacity exactly
// the way the paper's real machines do.
//
// Analysis lowers every loop bound and subscript from iv names to loop
// indices once; all trip-count and footprint arithmetic runs on that
// lowered form. A TiledNest reduces one tiling skeleton to flat tables in
// which every interval width has a closed form in the tile sizes, so the
// tuner never instantiates or re-analyzes a variant to evaluate it.
#pragma once

#include "analyzer/region.h"
#include "ir/program.h"

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace motune::perf {

/// An affine expression with its iv names lowered to nest loop indices:
/// constant + sum coeff * iv(loop). Terms keep ir::AffineExpr's order, so
/// every path sums an interval in the same order and rounds identically.
struct LoopAffine {
  std::int64_t constant = 0;
  std::vector<std::pair<std::size_t, std::int64_t>> terms; ///< (loop, coeff)
};

/// A loop header over loop indices:
/// for (iv = lower; iv < min(upper, cap); iv += step).
struct LoopBounds {
  LoopAffine lower;
  LoopAffine upper;
  std::optional<LoopAffine> cap;
  std::int64_t step = 1;
};

/// One loop of the (perfect) nest with its average trip count. For tiled
/// point loops the average accounts for boundary tiles exactly
/// (avgTrip = range / numTiles), so products of avgTrips along the nest
/// equal exact iteration counts.
struct LoopDesc {
  const ir::Loop* loop = nullptr;
  double avgTrip = 1.0;
  bool parallel = false;
  int collapse = 1;
};

/// A group of accesses to one array sharing identical linear subscript
/// parts; constant offsets are merged into per-dimension spreads (so the
/// 27 reads of the 3d-stencil form a single class with spread 2 per dim).
struct AccessClass {
  std::vector<LoopAffine> linear;   ///< representative subscripts
  std::vector<std::int64_t> spread; ///< per dim: max - min constant term
  int accessCount = 0;              ///< dynamic accesses per leaf iteration
  bool hasWrite = false;
};

struct ArrayUsage {
  const ir::ArrayDecl* decl = nullptr;
  std::vector<AccessClass> classes;
};

/// Everything the cost model needs, extracted in one pass.
struct NestAnalysis {
  std::vector<LoopDesc> loops;     ///< outermost first
  std::vector<LoopBounds> bounds;  ///< loops[l]'s header over loop indices
  std::vector<ArrayUsage> arrays;
  double flopsPerIter = 0.0;       ///< weighted flop count of the leaf body
  double heavyOpsPerIter = 0.0;    ///< div/sqrt count (latency-bound ops)
  double memAccessesPerIter = 0.0; ///< array reads+writes per leaf iteration
  bool innermostUnitStride = true; ///< leaf vectorizable (stride 0/1 last dim)

  /// Product of avgTrips of loops [0, level) — iterations of the sub-nest
  /// at `level` (level loops.size() = leaf iterations of the whole nest).
  double outerIterations(std::size_t level) const;

  /// Total leaf iterations.
  double leafIterations() const { return outerIterations(loops.size()); }
};

/// The numbers the cost model reads (CostModel::predictLowered): a nest
/// analysis with its trips and footprints evaluated at one line size.
struct LoweredNest {
  std::vector<double> avgTrip;  ///< per loop, outermost first
  bool parallel = false;        ///< the outermost loop is a parallel header
  int collapse = 1;             ///< loops that header distributes jointly
  /// Per access class (arrays in order, then their classes): the class's
  /// subscripts use no parallel iv, so every thread touches the same data.
  std::vector<char> classShared;
  /// Per access class, the footprint at levels 0..depth (class-major).
  std::vector<double> footprints;
  /// Per level 0..depth, the product of avgTrips of loops [0, level),
  /// multiplied outermost first as NestAnalysis::outerIterations does.
  std::vector<double> outer;
  double flopsPerIter = 0.0;
  double heavyOpsPerIter = 0.0;
  bool innermostUnitStride = true;

  std::size_t depth() const { return avgTrip.size(); }
  double footprint(std::size_t cls, std::size_t level) const {
    return footprints[cls * (depth() + 1) + level];
  }
  double outerIterations(std::size_t level) const { return outer[level]; }
  double leafIterations() const { return outer[depth()]; }
};

/// Analyzes a program whose body is a single perfect loop nest (original or
/// tiled kernels; multi-statement leaf bodies are fine). The result holds
/// pointers into `program`, which must outlive it.
NestAnalysis analyzeNest(const ir::Program& program);

/// Lowers `na` to the cost model's numbers; footprints use `lineBytes`.
LoweredNest lowerNest(const NestAnalysis& na, std::int64_t lineBytes);

/// Distinct bytes of `arrays[arrayIdx]` touched by one execution of loops
/// [level, D) with outer loops fixed; line-granular, clamped to the array
/// size. level == loops.size() gives the leaf (single iteration) footprint.
double footprintBytes(const NestAnalysis& na, std::size_t arrayIdx,
                      std::size_t level, std::int64_t lineBytes);

/// Sum of footprintBytes over all arrays.
double totalFootprintBytes(const NestAnalysis& na, std::size_t level,
                           std::int64_t lineBytes);

/// The nest of a tiling skeleton with its tile sizes left unbound (paper
/// §IV). Every instantiation shares one loop structure: d tile loops with
/// constant bounds and step t_p, then d point loops
/// iv in [iv_t, min(iv_t + t_p, N)), then the constant-bound loops below
/// the band. Access classes, body counts and thread sharing are therefore
/// fixed, and every loop's interval width at every level is a closed form
/// in t_p and constants. The constructor analyzes one instantiation, checks
/// that shape and keeps only flat tables: per loop its constant width and
/// trip, per band dimension its bounds, per access class its (loop,
/// |coeff|) terms, spreads, extents and element size. A query reads those
/// tables and allocates nothing beyond `out`'s capacity. Immutable after
/// construction, so concurrent queries are safe.
class TiledNest {
public:
  explicit TiledNest(const analyzer::TransformationSkeleton& skeleton);

  std::size_t depth() const { return loopWidth_.size(); }
  std::size_t tileDims() const { return tileDims_; }

  /// Writes lowerNest(analyzeNest(skeleton.instantiate(tiles, ...)),
  /// lineBytes) into `out`, bit for bit, without building or analyzing a
  /// variant. Every field of `out` is overwritten; its vectors keep their
  /// capacity, so a reused `out` costs no allocation.
  void lower(std::span<const std::int64_t> tiles, std::int64_t lineBytes,
             LoweredNest& out) const;

  /// totalFootprintBytes of that instantiation.
  double totalFootprintBytes(std::span<const std::int64_t> tiles,
                             std::size_t level,
                             std::int64_t lineBytes) const;

private:
  /// Band dimension p: tile loop p runs over [lower, upper) by t_p, point
  /// loop p over [tile iv, min(tile iv + t_p, cap)).
  struct Band {
    std::int64_t lower = 0;
    std::int64_t upper = 0;
    std::int64_t cap = 0;
  };
  /// One subscript term: |coeff| * iv(loop).
  struct Term {
    std::size_t loop = 0;
    std::int64_t coeff = 0;
  };
  /// One subscript dimension of an access class: terms_[termsBegin,
  /// termsEnd) plus the spread of its constant offsets.
  struct Dim {
    std::int64_t spread = 0;
    std::int64_t extent = 0; ///< the array's extent in this dimension
    std::size_t termsBegin = 0;
    std::size_t termsEnd = 0;
  };
  /// One access class: dims_[dimsBegin, dimsEnd).
  struct Class {
    std::size_t dimsBegin = 0;
    std::size_t dimsEnd = 0;
    std::int64_t elemBytes = 0;
  };
  /// One array; its classes end at classes_[classesEnd].
  struct Array {
    std::int64_t bytes = 0;
    std::size_t classesEnd = 0;
  };

  void checkTiles(std::span<const std::int64_t> tiles) const;
  /// Width of loop `loop`'s iv interval when loops [level, D) vary and the
  /// outer ones are pinned to their first iteration.
  std::int64_t width(std::size_t loop, std::size_t level,
                     std::span<const std::int64_t> tiles) const;
  /// Line-granular footprint of classes_[cls] at `level`, capped at
  /// `cap`, the line-rounded array size.
  double classFootprint(std::size_t cls, std::size_t level,
                        std::span<const std::int64_t> tiles,
                        std::int64_t line, double cap) const;

  std::size_t tileDims_ = 0;
  std::vector<Band> band_;
  std::vector<std::int64_t> loopWidth_; ///< tile and constant loops
  std::vector<double> loopTrip_;        ///< constant loops' average trip
  std::vector<Term> terms_;
  std::vector<Dim> dims_;
  std::vector<Class> classes_;
  std::vector<Array> arrays_;
  std::vector<char> classShared_; ///< LoweredNest::classShared, any tiles
  bool parallel_ = false;
  int collapse_ = 1;
  double flopsPerIter_ = 0.0;
  double heavyOpsPerIter_ = 0.0;
  bool innermostUnitStride_ = true;
};

} // namespace motune::perf
