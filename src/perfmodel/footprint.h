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
// lowered form. A TiledNest keeps the lowered form of one tiling skeleton
// and patches only the tile sizes per configuration, so the tuner never
// instantiates or re-analyzes a variant to evaluate it.
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
  double flopsPerIter = 0.0;
  double heavyOpsPerIter = 0.0;
  bool innermostUnitStride = true;

  std::size_t depth() const { return avgTrip.size(); }
  double footprint(std::size_t cls, std::size_t level) const {
    return footprints[cls * (depth() + 1) + level];
  }
  /// Product of avgTrips of loops [0, level), as NestAnalysis's.
  double outerIterations(std::size_t level) const;
  double leafIterations() const { return outerIterations(depth()); }
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
/// fixed; only the tile loops' steps and the point loops' upper constants
/// change with a configuration. The constructor analyzes one instantiation,
/// checks that shape and computes the class sharing once; queries patch
/// the tile sizes into a per-thread copy of its lowered bounds, so a query
/// allocates nothing once its thread has seen the nest. Immutable after
/// construction, so concurrent queries are safe.
class TiledNest {
public:
  explicit TiledNest(const analyzer::TransformationSkeleton& skeleton);
  TiledNest(const TiledNest&) = delete; // analysis_ points into variant_
  TiledNest& operator=(const TiledNest&) = delete;

  std::size_t depth() const { return analysis_.loops.size(); }
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
  /// The calling thread's copy of the lowered bounds with `tiles` patched
  /// in; valid until the thread's next query on any TiledNest.
  std::span<const LoopBounds> boundsAt(
      std::span<const std::int64_t> tiles) const;

  ir::Program variant_;
  NestAnalysis analysis_;
  std::size_t tileDims_;
  std::vector<char> classShared_; ///< LoweredNest::classShared, any tiles
  std::uint64_t id_;              ///< process-unique: keys threads' copies
};

} // namespace motune::perf
