// Small numeric helpers shared by the workloads and the reporter.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

/// Folds one 64-bit word into an FNV-1a style running digest.
inline uint64_t FnvMix(uint64_t digest, uint64_t word) {
  for (int b = 0; b < 8; ++b) {
    digest = (digest ^ ((word >> (8 * b)) & 0xff)) * 1099511628211ULL;
  }
  return digest;
}

/// Quantile q in [0, 1] with linear interpolation between the closest
/// ranks (the "inclusive" rule). 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / double(v.size());
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

}  // namespace perfbench
