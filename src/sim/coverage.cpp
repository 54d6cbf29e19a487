#include "sim/coverage.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace specure::sim {

const std::string& CoverageRecorder::point_name(std::size_t p) {
  static const std::array<std::string, kPoints> names = [] {
    std::array<std::string, kPoints> out;
    for (std::size_t i = 0; i < kPoints; ++i) {
      const CovSiteDef& site = kCovSites[i / 2];
      const bool outcome = i % 2 != 0;
      out[i] = std::string{site.kind} + ":" + std::string(site.name) + ":" +
               (site.kind == 'b' ? (outcome ? "t" : "n")
                                 : (outcome ? "1" : "0"));
    }
    return out;
  }();
  return names[p];
}

std::vector<std::string> CoverageRecorder::points() const {
  std::vector<std::string> out;
  out.reserve(point_count());
  for (std::size_t p = 0; p < kPoints; ++p) {
    if ((bits_ >> p) & 1) out.push_back(point_name(p));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void CoverageRecorder::restore(const std::vector<std::string>& points,
                               std::uint64_t toggle_bits) {
  std::uint64_t bits = 0;
  for (const std::string& name : points) {
    std::size_t p = 0;
    while (p < kPoints && point_name(p) != name) ++p;
    if (p == kPoints) {
      throw std::invalid_argument("unknown code-coverage point '" + name +
                                  "'");
    }
    bits |= std::uint64_t{1} << p;
  }
  bits_ = bits;
  toggle_bits_ = toggle_bits;
}

}  // namespace specure::sim
