#include "detectors/seasonal_detectors.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>

#include "util/stats.hpp"

namespace opprentice::detectors {
namespace {

// Floor on the normalization scale so a perfectly flat history does not
// blow the severity up to infinity.
constexpr double kScaleEpsilonFraction = 1e-6;

// TSD re-sums its shifted residual sums once the squared mean of the
// shifted residuals exceeds this multiple of their variance: the variance
// then loses at most about eps * kShiftDriftRatio of relative precision
// to cancellation. A fresh shift keeps the ratio below the window size.
constexpr double kShiftDriftRatio = 1e5;

std::string weeks_name(const char* base, std::size_t win_weeks) {
  std::ostringstream out;
  out << base << "(win=" << win_weeks << "w)";
  return out.str();
}

}  // namespace

SeasonalDetectorBase::SeasonalDetectorBase(std::size_t period_points,
                                           std::size_t samples_per_slot,
                                           std::size_t scale_window,
                                           bool robust,
                                           ScaleSource scale_source)
    : period_(period_points),
      samples_per_slot_(samples_per_slot),
      robust_(robust),
      scale_source_(scale_source),
      slot_values_(period_points * samples_per_slot),
      slot_rings_(period_points),
      residuals_(scale_window),
      scratch_(samples_per_slot) {
  if (samples_per_slot == 0 ||
      samples_per_slot > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument(
        "SeasonalDetectorBase: samples_per_slot must be in [1, 65535]");
  }
  if (robust_ && scale_source_ == ScaleSource::kRecentResiduals) {
    sorted_.assign(scale_window, 0.0);
  }
}

double SeasonalDetectorBase::feed(double value) {
  const std::size_t slot = index_ % period_;
  ++index_;
  SlotRing& ring = slot_rings_[slot];
  double* const history = slot_values_.data() + slot * samples_per_slot_;

  double severity = 0.0;
  if (!util::is_missing(value) && ring.size >= 1) {
    // The slot's samples, oldest first, into the front of scratch_.
    const std::span<double> window(scratch_.data(), ring.size);
    std::size_t oldest = ring.head + samples_per_slot_ - ring.size;
    if (oldest >= samples_per_slot_) oldest -= samples_per_slot_;
    const std::size_t run =
        std::min<std::size_t>(ring.size, samples_per_slot_ - oldest);
    std::copy_n(history + oldest, run, window.begin());
    std::copy_n(history, ring.size - run,
                window.begin() + static_cast<std::ptrdiff_t>(run));
    const double center =
        robust_ ? util::median_inplace(window) : util::mean(window);
    if (!util::is_missing(center)) {
      const double residual = value - center;

      double scale = std::numeric_limits<double>::quiet_NaN();
      if (scale_source_ == ScaleSource::kSlotHistory) {
        scale = robust_ ? util::mad_inplace(window, center)
                        : util::stddev(window);
      } else if (residuals_.size() >= 16) {
        // Scale over |residuals| keeps the estimate one-sided and stable.
        scale = recent_residual_scale();
      }
      const double floor_scale =
          std::abs(center) * kScaleEpsilonFraction + 1e-9;
      if (!util::is_missing(scale)) {
        severity = std::abs(residual) / std::max(scale, floor_scale);
      }
      if (scale_source_ == ScaleSource::kRecentResiduals) {
        push_residual(residual);
      }
    }
  }
  if (!util::is_missing(value)) {
    history[ring.head] = value;
    const std::size_t next = ring.head + std::size_t{1};
    ring.head =
        static_cast<std::uint16_t>(next == samples_per_slot_ ? 0 : next);
    if (ring.size < samples_per_slot_) ++ring.size;
  }
  return sanitize_severity(severity);
}

double SeasonalDetectorBase::recent_residual_scale() {
  if (robust_) return util::mad_sorted({sorted_.data(), sorted_size_});
  if (present_ == 0) return std::numeric_limits<double>::quiet_NaN();
  const double n = static_cast<double>(present_);
  double mean = shifted_sum_ / n;
  double variance = shifted_sum_sq_ / n - mean * mean;
  if (!std::isfinite(shifted_sum_sq_) ||
      mean * mean > kShiftDriftRatio * variance) {
    resum_residuals();
    mean = shifted_sum_ / n;
    variance = shifted_sum_sq_ / n - mean * mean;
  }
  return std::sqrt(std::max(variance, 0.0));
}

void SeasonalDetectorBase::push_residual(double residual) {
  const bool evicts = residuals_.full();
  const double evicted = evicts ? residuals_.oldest(0) : 0.0;
  residuals_.push(residual);
  if (robust_) {
    if (evicts && !util::is_missing(evicted)) {
      std::size_t i = static_cast<std::size_t>(
          std::lower_bound(sorted_.begin(),
                           sorted_.begin() +
                               static_cast<std::ptrdiff_t>(sorted_size_),
                           evicted) -
          sorted_.begin());
      --sorted_size_;
      for (; i < sorted_size_; ++i) sorted_[i] = sorted_[i + 1];
    }
    if (!util::is_missing(residual)) {
      std::size_t i = sorted_size_;
      for (; i > 0 && sorted_[i - 1] > residual; --i) {
        sorted_[i] = sorted_[i - 1];
      }
      sorted_[i] = residual;
      ++sorted_size_;
    }
    return;
  }
  if (present_ == 0 && !util::is_missing(residual)) shift_ = residual;
  if (evicts && !util::is_missing(evicted)) {
    const double d = evicted - shift_;
    shifted_sum_ -= d;
    shifted_sum_sq_ -= d * d;
    --present_;
  }
  if (!util::is_missing(residual)) {
    const double d = residual - shift_;
    shifted_sum_ += d;
    shifted_sum_sq_ += d * d;
    ++present_;
  }
  if (++since_resum_ >= residuals_.capacity()) resum_residuals();
}

void SeasonalDetectorBase::resum_residuals() {
  // Shift by the oldest present residual: then mean^2 <= n * variance
  // right after the re-sum, far below kShiftDriftRatio.
  shift_ = 0.0;
  for (std::size_t i = 0; i < residuals_.size(); ++i) {
    if (!util::is_missing(residuals_.oldest(i))) {
      shift_ = residuals_.oldest(i);
      break;
    }
  }
  shifted_sum_ = 0.0;
  shifted_sum_sq_ = 0.0;
  present_ = 0;
  for (std::size_t i = 0; i < residuals_.size(); ++i) {
    const double r = residuals_.oldest(i);
    if (util::is_missing(r)) continue;
    shifted_sum_ += r - shift_;
    shifted_sum_sq_ += (r - shift_) * (r - shift_);
    ++present_;
  }
  since_resum_ = 0;
}

void SeasonalDetectorBase::reset() {
  std::fill(slot_rings_.begin(), slot_rings_.end(), SlotRing{});
  residuals_.clear();
  index_ = 0;
  shift_ = 0.0;
  shifted_sum_ = 0.0;
  shifted_sum_sq_ = 0.0;
  present_ = 0;
  since_resum_ = 0;
  sorted_size_ = 0;
}

// ---- TSD ----

TsdDetector::TsdDetector(std::size_t win_weeks, const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_week, win_weeks, ctx.points_per_day,
                           /*robust=*/false, ScaleSource::kRecentResiduals),
      win_weeks_(win_weeks),
      points_per_week_(ctx.points_per_week) {}

std::string TsdDetector::name() const {
  return weeks_name("tsd", win_weeks_);
}

std::size_t TsdDetector::warmup_points() const {
  return points_per_week_;
}

// ---- TSD MAD ----

TsdMadDetector::TsdMadDetector(std::size_t win_weeks, const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_week, win_weeks, ctx.points_per_day,
                           /*robust=*/true, ScaleSource::kRecentResiduals),
      win_weeks_(win_weeks),
      points_per_week_(ctx.points_per_week) {}

std::string TsdMadDetector::name() const {
  return weeks_name("tsd_mad", win_weeks_);
}

std::size_t TsdMadDetector::warmup_points() const {
  return points_per_week_;
}

// ---- Historical average ----

HistoricalAverageDetector::HistoricalAverageDetector(std::size_t win_weeks,
                                                     const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_day, 7 * win_weeks,
                           ctx.points_per_day,
                           /*robust=*/false, ScaleSource::kSlotHistory),
      win_weeks_(win_weeks),
      points_per_day_(ctx.points_per_day) {}

std::string HistoricalAverageDetector::name() const {
  return weeks_name("historical_average", win_weeks_);
}

std::size_t HistoricalAverageDetector::warmup_points() const {
  // Need at least a handful of same-slot days for a usable sigma.
  return 3 * points_per_day_;
}

// ---- Historical MAD ----

HistoricalMadDetector::HistoricalMadDetector(std::size_t win_weeks,
                                             const SeriesContext& ctx)
    : SeasonalDetectorBase(ctx.points_per_day, 7 * win_weeks,
                           ctx.points_per_day,
                           /*robust=*/true, ScaleSource::kSlotHistory),
      win_weeks_(win_weeks),
      points_per_day_(ctx.points_per_day) {}

std::string HistoricalMadDetector::name() const {
  return weeks_name("historical_mad", win_weeks_);
}

std::size_t HistoricalMadDetector::warmup_points() const {
  return 3 * points_per_day_;
}

}  // namespace opprentice::detectors
