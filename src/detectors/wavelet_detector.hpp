// Wavelet detector [Barford et al., IMW'02].
//
// A Haar multi-resolution analysis splits a sliding window of the signal
// into low / mid / high frequency bands. High/mid severities are the
// magnitude of the newest point's band component (sudden spikes and jitters
// live there); the low severity is the newest deviation of the
// low-frequency baseline from its window median (slow ramp-ups and level
// shifts live there). Table 3 samples win in {3, 5, 7} days and
// freq in {low, mid, high} — 9 configurations.
//
// No transform runs per point. Every node of the forward Haar pyramid of
// the window — the scaled pairwise sum of 2^j consecutive points — depends
// only on the points it covers, so the detector keeps, per level j, the
// nodes ending at the most recent points and adds one node per level per
// point, (older + newer) / sqrt(2), exactly as the transform computes it.
// With L = log2(n) levels, low_end = (L+2)/3 and mid_end = low_end +
// (L+1)/3:
//
//  - mid / high: the newest point's band value needs the detail (older -
//    newer) / sqrt(2) of the newest node pair at each kept level, then the
//    inverse transform along its path: O(L) per point;
//  - low: the 2^low_end block approximations (nodes of n >> low_end
//    points, spaced one block apart) run through the top of the transform
//    and back, and the median of the reconstructed block values is taken:
//    O(2^low_end * L) per point.
//
// Every band is bit-identical to the full-window transform kept in
// tests/reference as the oracle.
#pragma once

#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/hotpath.hpp"
#include "util/wavelet.hpp"

namespace opprentice::detectors {

class WaveletDetector final : public Detector {
 public:
  WaveletDetector(std::size_t win_days, util::FrequencyBand band,
                  const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override { return window_points_; }
  OPPRENTICE_HOT double feed(double value) override;
  void reset() override;

 private:
  void push(double value);
  double detail(std::size_t level) const;
  double fast_band() const;
  double low_band();

  std::size_t win_days_ = 0;
  util::FrequencyBand band_;
  std::size_t window_points_ = 0;  // n, a power of two
  std::size_t levels_ = 0;         // L = log2(n)
  std::size_t low_end_ = 0;
  std::size_t first_level_ = 0;    // finest band: first kept detail level
  std::size_t last_level_ = 0;     // ... and the last one
  std::size_t pushed_ = 0;         // points held, saturating at n
  // nodes_[j]: pyramid nodes of 2^j points, by end point, newest last.
  std::vector<RingBuffer<double>> nodes_;
  // Low band scratch: block approximations / transform work, details,
  // the inverse's next stage, and the block values the median reorders.
  std::vector<double> work_;
  std::vector<double> coeffs_;
  std::vector<double> next_;
  std::vector<double> block_values_;
  double last_value_ = 0.0;
  bool has_last_ = false;
};

}  // namespace opprentice::detectors
