#include "detectors/holt_winters_detector.hpp"

#include <cmath>
#include <sstream>

#include "util/stats.hpp"

namespace opprentice::detectors {

HoltWintersDetector::HoltWintersDetector(double alpha, double beta,
                                         double gamma,
                                         const SeriesContext& ctx)
    : alpha_(alpha),
      beta_(beta),
      gamma_(gamma),
      season_length_(ctx.points_per_day),
      season_(season_length_) {}

std::string HoltWintersDetector::name() const {
  std::ostringstream out;
  out << "holt_winters(a=" << alpha_ << ",b=" << beta_ << ",g=" << gamma_
      << ')';
  return out.str();
}

double HoltWintersDetector::feed(double value) {
  ++index_;
  if (!model_ready_) {
    // Bootstrap: collect one full day, then initialize level to the day
    // mean, trend to zero, and the season to the demeaned day profile.
    if (!util::is_missing(value)) {
      season_[bootstrapped_++] = value;
    } else if (bootstrapped_ > 0) {
      season_[bootstrapped_] = season_[bootstrapped_ - 1];  // hold last value
      ++bootstrapped_;
    }
    if (bootstrapped_ >= season_length_) {
      level_ = util::mean(season_);
      trend_ = 0.0;
      for (double& s : season_) s -= level_;
      model_ready_ = true;
    }
    return 0.0;
  }

  const std::size_t slot = (index_ - 1) % season_length_;
  const double forecast = level_ + trend_ + season_[slot];
  if (util::is_missing(value)) {
    // Advance the model along its own forecast so the phase stays aligned.
    const double prev_level = level_;
    level_ = forecast - season_[slot];
    trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
    return 0.0;
  }

  const double severity = std::abs(value - forecast);

  const double prev_level = level_;
  level_ = alpha_ * (value - season_[slot]) +
           (1.0 - alpha_) * (prev_level + trend_);
  trend_ = beta_ * (level_ - prev_level) + (1.0 - beta_) * trend_;
  season_[slot] =
      gamma_ * (value - level_) + (1.0 - gamma_) * season_[slot];

  return sanitize_severity(severity);
}

void HoltWintersDetector::reset() {
  bootstrapped_ = 0;  // season_ is rewritten by the next bootstrap day
  level_ = 0.0;
  trend_ = 0.0;
  model_ready_ = false;
  index_ = 0;
}

}  // namespace opprentice::detectors
