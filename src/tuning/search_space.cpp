#include "tuning/search_space.h"

#include "support/check.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace motune::tuning {

Boundary Boundary::fromSpace(const std::vector<ParamSpec>& space) {
  Boundary b;
  for (const auto& p : space) {
    MOTUNE_CHECK(p.lo <= p.hi);
    b.lo.push_back(static_cast<double>(p.lo));
    b.hi.push_back(static_cast<double>(p.hi));
  }
  return b;
}

void Boundary::closestTo(std::span<const double> x, Config& c) const {
  MOTUNE_CHECK(x.size() == lo.size());
  c.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double clamped = std::clamp(x[i], lo[i], hi[i]);
    c[i] = static_cast<std::int64_t>(std::llround(clamped));
    // Rounding can escape a fractional boundary by one unit; re-clamp.
    c[i] = std::max<std::int64_t>(
        c[i], static_cast<std::int64_t>(std::ceil(lo[i])));
    c[i] = std::min<std::int64_t>(
        c[i], static_cast<std::int64_t>(std::floor(hi[i])));
  }
}

bool Boundary::contains(const Config& c) const {
  MOTUNE_CHECK(c.size() == lo.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    const auto v = static_cast<double>(c[i]);
    if (v < lo[i] || v > hi[i]) return false;
  }
  return true;
}

void Boundary::intersectWith(const Boundary& other) {
  MOTUNE_CHECK(other.lo.size() == lo.size());
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const double newLo = std::max(lo[i], other.lo[i]);
    const double newHi = std::min(hi[i], other.hi[i]);
    if (newLo > newHi) {
      lo[i] = hi[i] = 0.5 * (lo[i] + hi[i]);
    } else {
      lo[i] = newLo;
      hi[i] = newHi;
    }
  }
}

double Boundary::volume() const {
  double v = 1.0;
  for (std::size_t i = 0; i < lo.size(); ++i)
    v *= std::max(0.0, std::floor(hi[i]) - std::ceil(lo[i]) + 1.0);
  return v;
}

std::string Boundary::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < lo.size(); ++i) {
    if (i > 0) os << " x ";
    os << "[" << lo[i] << ", " << hi[i] << "]";
  }
  return os.str();
}

double spaceCardinality(const std::vector<ParamSpec>& space) {
  double card = 1.0;
  for (const auto& p : space)
    card *= static_cast<double>(p.hi - p.lo + 1);
  return card;
}

} // namespace motune::tuning
