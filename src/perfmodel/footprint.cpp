#include "perfmodel/footprint.h"

#include "analyzer/access.h"
#include "support/check.h"
#include "transform/transforms.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace motune::perf {

namespace {

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  double width() const { return hi - lo; }
};

/// Lowers `e` to loop indices; its ivs must be among nest[0, visible).
LoopAffine lowerAffine(const ir::AffineExpr& e,
                       const std::vector<const ir::Loop*>& nest,
                       std::size_t visible) {
  LoopAffine out;
  out.constant = e.constantTerm();
  for (const auto& [name, coeff] : e.terms()) {
    std::size_t idx = 0;
    while (idx < visible && nest[idx]->iv != name) ++idx;
    MOTUNE_CHECK_MSG(idx < visible, "unbound iv in affine expr: " + name);
    out.terms.emplace_back(idx, coeff);
  }
  return out;
}

bool isConstant(const LoopBounds& b) {
  return b.lower.terms.empty() && b.upper.terms.empty() && !b.cap;
}

Interval evalInterval(const LoopAffine& e, std::span<const Interval> ivs) {
  Interval out{static_cast<double>(e.constant),
               static_cast<double>(e.constant)};
  for (const auto& [idx, coeff] : e.terms) {
    const Interval& iv = ivs[idx];
    const double c = static_cast<double>(coeff);
    if (c >= 0) {
      out.lo += c * iv.lo;
      out.hi += c * iv.hi;
    } else {
      out.lo += c * iv.hi;
      out.hi += c * iv.lo;
    }
  }
  return out;
}

/// Appends the value interval of every loop's iv when loops [level, D)
/// vary and outer loops are pinned to their first iteration.
void appendIntervalsAtLevel(std::span<const LoopBounds> bounds,
                            std::size_t level, std::vector<Interval>& out) {
  const std::size_t base = out.size();
  for (std::size_t idx = 0; idx < bounds.size(); ++idx) {
    const LoopBounds& b = bounds[idx];
    const std::span<const Interval> outer(out.data() + base, idx);
    const Interval lo = evalInterval(b.lower, outer);
    Interval hi = evalInterval(b.upper, outer);
    if (b.cap) {
      const Interval cap = evalInterval(*b.cap, outer);
      hi.lo = std::min(hi.lo, cap.lo);
      hi.hi = std::min(hi.hi, cap.hi);
    }
    if (idx >= level)
      out.push_back({lo.lo, std::max(lo.lo, hi.hi - 1.0)});
    else
      out.push_back({lo.lo, lo.lo}); // fixed at the first iteration
  }
}

std::vector<Interval> intervalsAtLevel(std::span<const LoopBounds> bounds,
                                       std::size_t level) {
  std::vector<Interval> ivs;
  ivs.reserve(bounds.size());
  appendIntervalsAtLevel(bounds, level, ivs);
  return ivs;
}

double roundUpTo(double x, double granule) {
  return std::ceil(x / granule) * granule;
}

/// Counts arithmetic in an expression tree. Shared subtrees (the builders
/// reuse ExprPtr nodes, e.g. n-body's 1/(r^2 sqrt(r^2)) factor) are counted
/// once — any real backend would CSE them.
void countOps(const ir::Expr& e, double& flops, double& heavy, double& mem,
              std::set<const ir::Expr*>& visited) {
  if (!visited.insert(&e).second) return;
  switch (e.kind) {
  case ir::Expr::Kind::Const:
  case ir::Expr::Kind::IvRef:
    return;
  case ir::Expr::Kind::Read:
    mem += 1.0;
    return;
  case ir::Expr::Kind::Binary:
    if (e.binOp == ir::BinOp::Div)
      heavy += 1.0;
    else
      flops += 1.0;
    countOps(*e.lhs, flops, heavy, mem, visited);
    countOps(*e.rhs, flops, heavy, mem, visited);
    return;
  case ir::Expr::Kind::Unary:
    if (e.unOp == ir::UnOp::Sqrt)
      heavy += 1.0;
    else
      flops += 1.0;
    countOps(*e.lhs, flops, heavy, mem, visited);
    return;
  }
}

/// Average trip count of loop `idx`; exact for constant bounds and for the
/// point loops produced by tiling (see header).
double averageTrip(std::span<const LoopBounds> bounds, std::size_t idx) {
  const LoopBounds& b = bounds[idx];
  if (isConstant(b)) {
    const double lo = static_cast<double>(b.lower.constant);
    const double hi = static_cast<double>(b.upper.constant);
    if (hi <= lo) return 0.0;
    return std::ceil((hi - lo) / static_cast<double>(b.step));
  }

  // Point-loop pattern: lower = <tile iv>, upper = min(<tile iv> + T, N).
  MOTUNE_CHECK_MSG(b.lower.terms.size() == 1 &&
                       b.lower.terms[0].second == 1 && b.cap &&
                       b.cap->terms.empty(),
                   "unsupported loop bound shape in performance model");
  MOTUNE_CHECK_MSG(b.upper.terms == b.lower.terms,
                   "point loop tile size must be constant");
  const auto tileSize =
      static_cast<double>(b.upper.constant - b.lower.constant);
  const LoopBounds& tileLoop = bounds[b.lower.terms[0].first];
  MOTUNE_CHECK(tileLoop.lower.terms.empty() && tileLoop.upper.terms.empty());
  const auto range =
      static_cast<double>(b.cap->constant - tileLoop.lower.constant);
  if (range <= 0) return 0.0;
  const double tiles = std::ceil(range / tileSize);
  return range / tiles;
}

/// Line-rounded size of the whole array: no footprint exceeds it.
double arrayCap(const ir::ArrayDecl& decl, double line) {
  return roundUpTo(static_cast<double>(decl.bytes()), line);
}

double classFootprint(const AccessClass& cls, const ir::ArrayDecl& decl,
                      std::span<const Interval> ivs, double line,
                      double cap) {
  const auto elemBytes = static_cast<double>(decl.elemBytes);
  double rows = 1.0;
  double lastExtent = 1.0;
  for (std::size_t d = 0; d < cls.linear.size(); ++d) {
    double width = static_cast<double>(cls.spread[d]);
    for (const auto& [idx, coeff] : cls.linear[d].terms)
      width += std::abs(static_cast<double>(coeff)) * ivs[idx].width();
    double extent =
        std::min(width + 1.0, static_cast<double>(decl.dims[d]));
    if (d + 1 == cls.linear.size())
      lastExtent = extent;
    else
      rows *= extent;
  }
  const double bytes = rows * roundUpTo(lastExtent * elemBytes, line);
  // Never report more than the whole array.
  return std::min(bytes, cap);
}

double arrayFootprint(const ArrayUsage& usage, std::span<const Interval> ivs,
                      double line) {
  const double cap = arrayCap(*usage.decl, line);
  double total = 0.0;
  for (const AccessClass& cls : usage.classes)
    total += classFootprint(cls, *usage.decl, ivs, line, cap);
  // Classes of the same array may overlap (n-body reads X[i] and X[j]);
  // never report more than the whole array.
  return std::min(total, cap);
}

bool dependsOnAny(const LoopAffine& e, const std::vector<char>& loops) {
  for (const auto& term : e.terms)
    if (loops[term.first]) return true;
  return false;
}

/// Per access class (arrays in order, then their classes): its subscripts
/// use no parallel iv, so every thread touches the same data. Parallel ivs
/// are the collapsed header loops plus every loop whose lower bound depends
/// on one (a point loop inherits its tile loop's); no tile size moves them.
std::vector<char> classSharing(const NestAnalysis& na) {
  const std::size_t depth = na.bounds.size();
  const LoopDesc& header = na.loops.front();
  std::vector<char> parallelLoop(depth, 0);
  if (header.parallel) {
    for (int l = 0; l < header.collapse && l < static_cast<int>(depth); ++l)
      parallelLoop[static_cast<std::size_t>(l)] = 1;
    for (std::size_t l = 0; l < depth; ++l)
      if (dependsOnAny(na.bounds[l].lower, parallelLoop)) parallelLoop[l] = 1;
  }
  std::vector<char> classShared;
  for (const ArrayUsage& usage : na.arrays) {
    for (const AccessClass& cls : usage.classes) {
      bool shared = true;
      for (const LoopAffine& sub : cls.linear)
        shared = shared && !dependsOnAny(sub, parallelLoop);
      classShared.push_back(shared ? 1 : 0);
    }
  }
  return classShared;
}

/// `x` rounded up to a multiple of `line`; for the non-negative integer
/// sizes below 2^53 that footprints round, equal to roundUpTo.
std::int64_t roundUpBytes(std::int64_t x, std::int64_t line) {
  if ((line & (line - 1)) == 0) return (x + line - 1) & ~(line - 1);
  return (x + line - 1) / line * line;
}

std::vector<std::int64_t> lowCorner(
    const analyzer::TransformationSkeleton& skeleton) {
  std::vector<std::int64_t> values;
  for (const analyzer::ParamSpec& p : skeleton.params())
    values.push_back(p.lo);
  return values;
}

} // namespace

double NestAnalysis::outerIterations(std::size_t level) const {
  MOTUNE_CHECK(level <= loops.size());
  double prod = 1.0;
  for (std::size_t l = 0; l < level; ++l) prod *= loops[l].avgTrip;
  return prod;
}

NestAnalysis analyzeNest(const ir::Program& program) {
  NestAnalysis na;
  const auto nest = transform::perfectNest(program);
  MOTUNE_CHECK_MSG(!nest.empty(), "program has no loop nest");
  // Only the perfect nest's loops are lowered, so a loop beside other
  // statements below its innermost header has induction variables the
  // model cannot bind: refuse the shape rather than fail on one of them.
  const ir::Loop& innermost = *nest.back();
  for (const ir::StmtPtr& stmt : innermost.body)
    MOTUNE_CHECK_MSG(stmt->kind != ir::Stmt::Kind::Loop,
                     "imperfect loop nest: loop '" + innermost.iv +
                         "' holds loop '" + stmt->loop.iv +
                         "' beside other statements; the cost model "
                         "analyzes perfect nests only");

  for (std::size_t idx = 0; idx < nest.size(); ++idx) {
    const ir::Loop& loop = *nest[idx];
    LoopBounds b;
    b.lower = lowerAffine(loop.lower, nest, idx);
    b.upper = lowerAffine(loop.upper.base, nest, idx);
    if (loop.upper.cap) b.cap = lowerAffine(*loop.upper.cap, nest, idx);
    b.step = loop.step;
    na.bounds.push_back(std::move(b));
    LoopDesc desc;
    desc.loop = &loop;
    desc.avgTrip = averageTrip(na.bounds, idx);
    desc.parallel = loop.parallel;
    desc.collapse = loop.collapse;
    na.loops.push_back(desc);
  }

  // Group accesses into per-array classes with identical linear parts.
  struct ClassBuild {
    std::vector<ir::AffineExpr> linear;
    std::vector<std::int64_t> minConst, maxConst;
    int count = 0;
    bool hasWrite = false;
  };
  struct ArrayBuild {
    const ir::ArrayDecl* decl;
    std::vector<ClassBuild> classes;
  };
  std::vector<ArrayBuild> arrayBuilds;

  auto stripped = [](const std::vector<ir::AffineExpr>& subs) {
    std::vector<ir::AffineExpr> out = subs;
    for (auto& s : out) s = s - s.constantTerm();
    return out;
  };

  for (const auto& acc : analyzer::collectAccesses(program)) {
    const ir::ArrayDecl* decl = program.findArray(acc.array);
    MOTUNE_CHECK_MSG(decl != nullptr, "access to undeclared array");
    ArrayBuild* ab = nullptr;
    for (auto& b : arrayBuilds)
      if (b.decl == decl) ab = &b;
    if (ab == nullptr) {
      arrayBuilds.push_back({decl, {}});
      ab = &arrayBuilds.back();
    }

    const auto linear = stripped(acc.subscripts);
    ClassBuild* cls = nullptr;
    for (auto& c : ab->classes)
      if (c.linear == linear) cls = &c;
    if (cls == nullptr) {
      ClassBuild c;
      c.linear = linear;
      c.minConst.resize(linear.size());
      c.maxConst.resize(linear.size());
      for (std::size_t d = 0; d < linear.size(); ++d)
        c.minConst[d] = c.maxConst[d] = acc.subscripts[d].constantTerm();
      ab->classes.push_back(std::move(c));
      cls = &ab->classes.back();
    } else {
      for (std::size_t d = 0; d < linear.size(); ++d) {
        cls->minConst[d] =
            std::min(cls->minConst[d], acc.subscripts[d].constantTerm());
        cls->maxConst[d] =
            std::max(cls->maxConst[d], acc.subscripts[d].constantTerm());
      }
    }
    ++cls->count;
    cls->hasWrite = cls->hasWrite || acc.isWrite;
  }

  for (auto& ab : arrayBuilds) {
    ArrayUsage usage;
    usage.decl = ab.decl;
    for (auto& c : ab.classes) {
      AccessClass out;
      for (const ir::AffineExpr& sub : c.linear)
        out.linear.push_back(lowerAffine(sub, nest, nest.size()));
      out.spread.resize(out.linear.size());
      for (std::size_t d = 0; d < out.spread.size(); ++d)
        out.spread[d] = c.maxConst[d] - c.minConst[d];
      out.accessCount = c.count;
      out.hasWrite = c.hasWrite;
      usage.classes.push_back(std::move(out));
    }
    na.arrays.push_back(std::move(usage));
  }

  // Leaf-body operation counts and vectorizability.
  std::set<const ir::Expr*> visited;
  ir::walk(program, [&](const ir::Stmt& s,
                        const std::vector<const ir::Loop*>&) {
    if (s.kind != ir::Stmt::Kind::Assign) return;
    countOps(*s.assign.rhs, na.flopsPerIter, na.heavyOpsPerIter,
             na.memAccessesPerIter, visited);
    na.memAccessesPerIter += s.assign.accumulate ? 2.0 : 1.0; // target access
    if (s.assign.accumulate) na.flopsPerIter += 1.0;
  });

  const std::size_t inner = nest.size() - 1;
  auto coeffOfInner = [&](const LoopAffine& sub) {
    for (const auto& [idx, coeff] : sub.terms)
      if (idx == inner) return coeff;
    return std::int64_t{0};
  };
  auto strideOk = [&](const std::vector<LoopAffine>& subs) {
    if (subs.empty()) return true;
    for (std::size_t d = 0; d + 1 < subs.size(); ++d)
      if (coeffOfInner(subs[d]) != 0) return false;
    const std::int64_t c = coeffOfInner(subs.back());
    return c == 0 || c == 1;
  };
  na.innermostUnitStride = true;
  for (const auto& au : na.arrays)
    for (const auto& cls : au.classes)
      if (!strideOk(cls.linear)) na.innermostUnitStride = false;

  return na;
}

LoweredNest lowerNest(const NestAnalysis& na, std::int64_t lineBytes) {
  LoweredNest out;
  const std::size_t depth = na.loops.size();
  out.outer.push_back(1.0);
  for (const LoopDesc& loop : na.loops) {
    out.avgTrip.push_back(loop.avgTrip);
    out.outer.push_back(out.outer.back() * loop.avgTrip);
  }
  out.parallel = na.loops.front().parallel;
  out.collapse = na.loops.front().collapse;
  out.flopsPerIter = na.flopsPerIter;
  out.heavyOpsPerIter = na.heavyOpsPerIter;
  out.innermostUnitStride = na.innermostUnitStride;
  out.classShared = classSharing(na);

  // Intervals of every level, then every class's footprint at each.
  std::vector<Interval> ivs;
  for (std::size_t lvl = 0; lvl <= depth; ++lvl)
    appendIntervalsAtLevel(na.bounds, lvl, ivs);
  const auto line = static_cast<double>(lineBytes);
  for (const ArrayUsage& usage : na.arrays) {
    const double cap = arrayCap(*usage.decl, line);
    for (const AccessClass& cls : usage.classes)
      for (std::size_t lvl = 0; lvl <= depth; ++lvl)
        out.footprints.push_back(classFootprint(
            cls, *usage.decl,
            std::span<const Interval>(ivs).subspan(lvl * depth, depth), line,
            cap));
  }
  return out;
}

double footprintBytes(const NestAnalysis& na, std::size_t arrayIdx,
                      std::size_t level, std::int64_t lineBytes) {
  MOTUNE_CHECK(arrayIdx < na.arrays.size());
  return arrayFootprint(na.arrays[arrayIdx], intervalsAtLevel(na.bounds, level),
                        static_cast<double>(lineBytes));
}

double totalFootprintBytes(const NestAnalysis& na, std::size_t level,
                           std::int64_t lineBytes) {
  const std::vector<Interval> ivs = intervalsAtLevel(na.bounds, level);
  double total = 0.0;
  for (const ArrayUsage& usage : na.arrays)
    total += arrayFootprint(usage, ivs, static_cast<double>(lineBytes));
  return total;
}

TiledNest::TiledNest(const analyzer::TransformationSkeleton& skeleton) {
  const ir::Program variant = skeleton.instantiate(lowCorner(skeleton));
  const NestAnalysis na = analyzeNest(variant);
  const std::vector<LoopBounds>& b = na.bounds;
  tileDims_ = skeleton.tileDepth();
  MOTUNE_CHECK_MSG(b.size() >= 2 * tileDims_,
                   "tiled nest is shallower than twice its tile band");
  for (std::size_t p = 0; p < tileDims_; ++p) {
    const std::int64_t t = skeleton.params()[p].lo;
    MOTUNE_CHECK_MSG(isConstant(b[p]) && b[p].step == t,
                     "tile loop " + std::to_string(p) +
                         " is not a constant-bound loop stepping by its tile");
    const LoopBounds& point = b[tileDims_ + p];
    const std::vector<std::pair<std::size_t, std::int64_t>> tileIv{{p, 1}};
    MOTUNE_CHECK_MSG(point.lower.constant == 0 && point.lower.terms == tileIv &&
                         point.upper.constant == t &&
                         point.upper.terms == tileIv && point.cap &&
                         point.cap->terms.empty() && point.step == 1,
                     "point loop " + std::to_string(p) +
                         " is not [tile iv, min(tile iv + tile, N))");
    band_.push_back(
        {b[p].lower.constant, b[p].upper.constant, point.cap->constant});
  }
  loopWidth_.assign(b.size(), 0);
  loopTrip_.assign(b.size(), 0.0);
  for (std::size_t l = 0; l < b.size(); ++l) {
    if (l >= tileDims_ && l < 2 * tileDims_) continue; // point loops
    MOTUNE_CHECK_MSG(isConstant(b[l]),
                     "loop " + std::to_string(l) +
                         " below the tile band has non-constant bounds");
    // appendIntervalsAtLevel's [lower, max(lower, upper - 1)].
    loopWidth_[l] = std::max<std::int64_t>(
        0, b[l].upper.constant - 1 - b[l].lower.constant);
    loopTrip_[l] = na.loops[l].avgTrip;
  }

  for (const ArrayUsage& usage : na.arrays) {
    for (const AccessClass& cls : usage.classes) {
      const std::size_t dimsBegin = dims_.size();
      for (std::size_t d = 0; d < cls.linear.size(); ++d) {
        const std::size_t termsBegin = terms_.size();
        for (const auto& [loop, coeff] : cls.linear[d].terms)
          terms_.push_back({loop, coeff < 0 ? -coeff : coeff});
        dims_.push_back({cls.spread[d], usage.decl->dims[d], termsBegin,
                         terms_.size()});
      }
      classes_.push_back({dimsBegin, dims_.size(), usage.decl->elemBytes});
    }
    arrays_.push_back({usage.decl->bytes(), classes_.size()});
  }
  classShared_ = classSharing(na);
  parallel_ = na.loops.front().parallel;
  collapse_ = na.loops.front().collapse;
  flopsPerIter_ = na.flopsPerIter;
  heavyOpsPerIter_ = na.heavyOpsPerIter;
  innermostUnitStride_ = na.innermostUnitStride;
}

void TiledNest::checkTiles(std::span<const std::int64_t> tiles) const {
  MOTUNE_CHECK(tiles.size() == tileDims_);
  for (const std::int64_t t : tiles) MOTUNE_CHECK(t >= 1);
}

// width() and classFootprint() run (depth + 1) x classes times per
// lowering; inlined into their two callers they take ~25% less time.
[[gnu::always_inline]] inline std::int64_t
TiledNest::width(std::size_t loop, std::size_t level,
                 std::span<const std::int64_t> tiles) const {
  if (loop < level) return 0; // pinned to its first iteration
  const std::size_t p = loop - tileDims_; // wraps for tile loops
  if (p >= tileDims_) return loopWidth_[loop];
  // Point loop p: from the tile iv's first value to min(its last value +
  // t_p, cap) - 1; the tile iv only moves when the tile loop varies too.
  const Band& b = band_[p];
  const std::int64_t tileLast =
      p < level ? b.lower : std::max(b.lower, b.upper - 1);
  return std::max<std::int64_t>(
      0, std::min(tileLast + tiles[p], b.cap) - 1 - b.lower);
}

[[gnu::always_inline]] inline double
TiledNest::classFootprint(std::size_t cls, std::size_t level,
                          std::span<const std::int64_t> tiles,
                          std::int64_t line, double cap) const {
  // Every width, extent and byte count is an integer below 2^53, so this
  // is classFootprint's double arithmetic exactly.
  const Class& c = classes_[cls];
  double rows = 1.0;
  std::int64_t lastExtent = 1;
  for (std::size_t d = c.dimsBegin; d < c.dimsEnd; ++d) {
    const Dim& dim = dims_[d];
    std::int64_t w = dim.spread;
    for (std::size_t t = dim.termsBegin; t < dim.termsEnd; ++t)
      w += terms_[t].coeff * width(terms_[t].loop, level, tiles);
    const std::int64_t extent = std::min(w + 1, dim.extent);
    if (d + 1 == c.dimsEnd)
      lastExtent = extent;
    else
      rows *= static_cast<double>(extent);
  }
  const double bytes =
      rows * static_cast<double>(roundUpBytes(lastExtent * c.elemBytes, line));
  return std::min(bytes, cap);
}

void TiledNest::lower(std::span<const std::int64_t> tiles,
                      std::int64_t lineBytes, LoweredNest& out) const {
  checkTiles(tiles);
  MOTUNE_CHECK(lineBytes >= 1);
  const std::size_t depth = this->depth();
  const std::size_t tileDims = tileDims_;
  // averageTrip of each loop shape, and the outer products as
  // NestAnalysis::outerIterations multiplies them.
  out.avgTrip.resize(depth);
  out.outer.resize(depth + 1);
  out.outer[0] = 1.0;
  for (std::size_t l = 0; l < depth; ++l) {
    double trip = loopTrip_[l];
    if (l < tileDims) {
      const Band& b = band_[l];
      trip = b.upper <= b.lower
                 ? 0.0
                 : std::ceil(static_cast<double>(b.upper - b.lower) /
                             static_cast<double>(tiles[l]));
    } else if (l < 2 * tileDims) {
      const std::size_t p = l - tileDims;
      const auto range = static_cast<double>(band_[p].cap - band_[p].lower);
      trip = range <= 0
                 ? 0.0
                 : range / std::ceil(range / static_cast<double>(tiles[p]));
    }
    out.avgTrip[l] = trip;
    out.outer[l + 1] = out.outer[l] * trip;
  }
  out.parallel = parallel_;
  out.collapse = collapse_;
  out.flopsPerIter = flopsPerIter_;
  out.heavyOpsPerIter = heavyOpsPerIter_;
  out.innermostUnitStride = innermostUnitStride_;
  out.classShared.assign(classShared_.begin(), classShared_.end());

  out.footprints.resize(classes_.size() * (depth + 1));
  double* fp = out.footprints.data();
  std::size_t cls = 0;
  for (const Array& a : arrays_) {
    const auto cap = static_cast<double>(roundUpBytes(a.bytes, lineBytes));
    for (; cls < a.classesEnd; ++cls)
      for (std::size_t lvl = 0; lvl <= depth; ++lvl)
        *fp++ = classFootprint(cls, lvl, tiles, lineBytes, cap);
  }
}

double TiledNest::totalFootprintBytes(std::span<const std::int64_t> tiles,
                                      std::size_t level,
                                      std::int64_t lineBytes) const {
  checkTiles(tiles);
  MOTUNE_CHECK(lineBytes >= 1);
  double total = 0.0;
  std::size_t cls = 0;
  for (const Array& a : arrays_) {
    const auto cap = static_cast<double>(roundUpBytes(a.bytes, lineBytes));
    double sum = 0.0;
    for (; cls < a.classesEnd; ++cls)
      sum += classFootprint(cls, level, tiles, lineBytes, cap);
    total += std::min(sum, cap); // arrayFootprint's cap on overlaps
  }
  return total;
}

} // namespace motune::perf
