// Seasonality-aware detectors of Table 3:
//
//  - TSD (time series decomposition): subtract the week-periodic template
//    (mean of the same slot-of-week over the past `win` weeks); severity is
//    the residual measured in standard deviations of recent residuals.
//  - TSD MAD: the robust variant — median template, MAD scale (§6 "dirty
//    data": MAD improves robustness to outliers and missing points).
//  - Historical average: Gaussian model per slot-of-day over the past
//    `win` weeks of days; severity = #stddevs from the slot mean.
//  - Historical MAD: robust variant with median / MAD.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/hotpath.hpp"

namespace opprentice::detectors {

// Where the normalization scale of the residual comes from.
enum class ScaleSource {
  kRecentResiduals,  // TSD family: stddev/MAD of recent residuals
  kSlotHistory,      // historical family: stddev/MAD of the slot's history
};

// Common engine: per-slot value history + residual scale tracking.
//
// The recent-residual scale is kept incrementally: the TSD stddev from
// running sums of the residuals shifted by one of them (re-summed exactly
// once per window, or when the window has drifted far from the shift),
// the TSD-MAD scale from a sorted copy of the residual ring, whose MAD is
// read off in O(log n) (util::mad_sorted). Medians and MADs of a slot's
// history are taken in place on scratch_. Robust scales are bit-identical
// to util::mad of the same window; tests/reference keeps the original.
//
// The slot history is one flat period x samples_per_slot array: slot s
// owns the ring [s * samples_per_slot, (s + 1) * samples_per_slot), with
// its write position and fill in slot_rings_[s]. Slots fill unevenly
// (missing points push nothing), so each keeps its own.
class SeasonalDetectorBase : public Detector {
 public:
  // period_points: seasonal period (week for TSD, day for historical).
  // samples_per_slot: how many past same-slot values to keep.
  SeasonalDetectorBase(std::size_t period_points, std::size_t samples_per_slot,
                       std::size_t scale_window, bool robust,
                       ScaleSource scale_source);

  OPPRENTICE_HOT double feed(double value) override;
  void reset() override;

 private:
  double recent_residual_scale();
  void push_residual(double residual);
  void resum_residuals();

  std::size_t period_ = 0;
  std::size_t samples_per_slot_ = 0;
  bool robust_ = false;  // median/MAD instead of mean/std
  ScaleSource scale_source_;

  struct SlotRing {
    std::uint16_t head = 0;  // next write position
    std::uint16_t size = 0;
  };

  std::vector<double> slot_values_;
  std::vector<SlotRing> slot_rings_;
  RingBuffer<double> residuals_;  // recent residuals, for the scale
  std::size_t index_ = 0;
  std::vector<double> scratch_;  // samples_per_slot_ entries
  // kRecentResiduals, !robust_: sums of (residual - shift) and its square
  // over the present residuals in the ring.
  double shift_ = 0.0;
  double shifted_sum_ = 0.0;
  double shifted_sum_sq_ = 0.0;
  std::size_t present_ = 0;
  std::size_t since_resum_ = 0;
  // kRecentResiduals, robust_: the ring's present residuals, ascending,
  // in a buffer sized to the ring.
  std::vector<double> sorted_;
  std::size_t sorted_size_ = 0;
};

class TsdDetector final : public SeasonalDetectorBase {
 public:
  TsdDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_week_ = 0;
};

class TsdMadDetector final : public SeasonalDetectorBase {
 public:
  TsdMadDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_week_ = 0;
};

class HistoricalAverageDetector final : public SeasonalDetectorBase {
 public:
  HistoricalAverageDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_day_ = 0;
};

class HistoricalMadDetector final : public SeasonalDetectorBase {
 public:
  HistoricalMadDetector(std::size_t win_weeks, const SeriesContext& ctx);
  std::string name() const override;
  std::size_t warmup_points() const override;

 private:
  std::size_t win_weeks_ = 0;
  std::size_t points_per_day_ = 0;
};

}  // namespace opprentice::detectors
