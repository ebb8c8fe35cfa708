// Reference oracles for the incremental detectors: the per-point
// recompute implementations the SVD, wavelet and seasonal families ran
// before their state became incremental. Each recomputes its whole window
// on every point (a Jacobi SVD, a forward + inverse Haar transform, or a
// copy and two nth_element passes) and is kept only so the production
// detectors can be tested against it (tests/detector_oracle_test.cpp).
// Holt-Winters keeps its original layout, a separate bootstrap-day buffer
// next to the season, as the oracle for the in-place bootstrap.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/ring_buffer.hpp"
#include "util/wavelet.hpp"

namespace opprentice::reference {

using detectors::Detector;
using detectors::RingBuffer;
using detectors::SeriesContext;

class SvdDetector final : public Detector {
 public:
  SvdDetector(std::size_t rows, std::size_t cols);

  std::string name() const override;
  std::size_t warmup_points() const override { return rows_ * cols_; }
  double feed(double value) override;
  void reset() override;

  // sigma1 / sigma2 of the past-segment matrix at the last scored point
  // (inf when sigma2 is 0, NaN before the first score). u1 — and so the
  // severity — is only well defined when this is clearly above 1.
  double last_singular_ratio() const { return last_ratio_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  RingBuffer<double> history_;
  double last_value_ = 0.0;
  bool has_last_ = false;
  double last_ratio_ = 0.0;
};

class WaveletDetector final : public Detector {
 public:
  WaveletDetector(std::size_t win_days, util::FrequencyBand band,
                  const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override { return window_points_; }
  double feed(double value) override;
  void reset() override;

 private:
  std::size_t win_days_ = 0;
  util::FrequencyBand band_;
  std::size_t window_points_ = 0;  // power of two
  RingBuffer<double> history_;
  double last_value_ = 0.0;
  bool has_last_ = false;
  std::vector<double> scratch_;
};

// TSD / TSD-MAD / historical average / historical MAD, parameterized the
// way src/detectors/seasonal_detectors.hpp builds them.
enum class SeasonalKind { kTsd, kTsdMad, kHistoricalAverage, kHistoricalMad };

class SeasonalDetector final : public Detector {
 public:
  SeasonalDetector(SeasonalKind kind, std::size_t win_weeks,
                   const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override;
  double feed(double value) override;
  void reset() override;

 private:
  SeasonalKind kind_;
  std::size_t win_weeks_ = 0;
  SeriesContext ctx_;
  std::size_t period_ = 0;
  bool robust_ = false;         // median/MAD instead of mean/std
  bool recent_residuals_ = false;  // TSD family: scale from recent residuals
  std::vector<RingBuffer<double>> slots_;
  RingBuffer<double> residuals_;
  std::size_t index_ = 0;
  std::vector<double> scratch_;
};

class HoltWintersDetector final : public Detector {
 public:
  HoltWintersDetector(double alpha, double beta, double gamma,
                      const SeriesContext& ctx);

  std::string name() const override;
  std::size_t warmup_points() const override { return 2 * season_length_; }
  double feed(double value) override;
  void reset() override;

 private:
  double alpha_ = 0.0;
  double beta_ = 0.0;
  double gamma_ = 0.0;
  std::size_t season_length_ = 0;
  std::vector<double> season_;
  double level_ = 0.0;
  double trend_ = 0.0;
  bool model_ready_ = false;
  std::vector<double> first_day_;
  std::size_t index_ = 0;
};

// The reference twin of a production configuration name ("svd(row=10,
// col=3)", "wavelet(win=5d,freq=low)", "tsd_mad(win=2w)",
// "holt_winters(a=0.2,b=0.4,g=0.6)", ...), or null for a family without
// one.
detectors::DetectorPtr make_reference(const std::string& config_name,
                                      const SeriesContext& ctx);

}  // namespace opprentice::reference
