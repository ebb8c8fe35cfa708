#include "reference/detectors.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "reference/svd.hpp"
#include "reference/wavelet.hpp"
#include "util/stats.hpp"

namespace opprentice::reference {
namespace {

constexpr double kScaleEpsilonFraction = 1e-6;

const char* band_name(util::FrequencyBand band) {
  switch (band) {
    case util::FrequencyBand::kLow: return "low";
    case util::FrequencyBand::kMid: return "mid";
    case util::FrequencyBand::kHigh: return "high";
  }
  return "?";
}

}  // namespace

// ---- SVD ----

SvdDetector::SvdDetector(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), history_(rows * cols) {}

std::string SvdDetector::name() const {
  std::ostringstream out;
  out << "svd(row=" << rows_ << ",col=" << cols_ << ')';
  return out.str();
}

double SvdDetector::feed(double value) {
  if (util::is_missing(value)) {
    if (has_last_) history_.push(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  history_.push(value);
  if (!history_.full()) return 0.0;

  // Column-major fill: column c holds segment c of the window (oldest
  // segment first), so the newest point lands at (rows-1, cols-1). The
  // dominant subspace is learned from the past segments only.
  Matrix past(rows_, cols_ - 1);
  std::vector<double> newest(rows_);
  for (std::size_t c = 0; c < cols_; ++c) {
    for (std::size_t r = 0; r < rows_; ++r) {
      const std::size_t pos = c * rows_ + r;
      const std::size_t age = rows_ * cols_ - 1 - pos;
      const double v = history_.back(age);
      if (c + 1 < cols_) {
        past(r, c) = v;
      } else {
        newest[r] = v;
      }
    }
  }
  const SvdResult d = svd(past);
  const auto& s = d.singular_values;
  last_ratio_ = s.size() < 2 || s[1] == 0.0
                    ? std::numeric_limits<double>::infinity()
                    : s[0] / s[1];
  double coeff = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) coeff += d.u(r, 0) * newest[r];
  const double residual = newest[rows_ - 1] - coeff * d.u(rows_ - 1, 0);
  return detectors::sanitize_severity(std::abs(residual));
}

void SvdDetector::reset() {
  history_.clear();
  has_last_ = false;
  last_value_ = 0.0;
  last_ratio_ = 0.0;
}

// ---- wavelet ----

WaveletDetector::WaveletDetector(std::size_t win_days,
                                 util::FrequencyBand band,
                                 const SeriesContext& ctx)
    : win_days_(win_days),
      band_(band),
      window_points_(util::floor_pow2(win_days * ctx.points_per_day)),
      history_(window_points_) {}

std::string WaveletDetector::name() const {
  std::ostringstream out;
  out << "wavelet(win=" << win_days_ << "d,freq=" << band_name(band_) << ')';
  return out.str();
}

double WaveletDetector::feed(double value) {
  if (util::is_missing(value)) {
    if (has_last_) history_.push(last_value_);
    return 0.0;
  }
  last_value_ = value;
  has_last_ = true;
  history_.push(value);
  if (!history_.full()) return 0.0;

  history_.copy_ordered(scratch_);
  const std::vector<double> band_signal = band_reconstruction(scratch_, band_);
  double severity;
  if (band_ == util::FrequencyBand::kLow) {
    severity = std::abs(band_signal.back() - util::median(band_signal));
  } else {
    severity = std::abs(band_signal.back());
  }
  return detectors::sanitize_severity(severity);
}

void WaveletDetector::reset() {
  history_.clear();
  has_last_ = false;
  last_value_ = 0.0;
}

// ---- seasonal ----

SeasonalDetector::SeasonalDetector(SeasonalKind kind, std::size_t win_weeks,
                                   const SeriesContext& ctx)
    : kind_(kind),
      win_weeks_(win_weeks),
      ctx_(ctx),
      period_(kind == SeasonalKind::kTsd || kind == SeasonalKind::kTsdMad
                  ? ctx.points_per_week
                  : ctx.points_per_day),
      robust_(kind == SeasonalKind::kTsdMad ||
              kind == SeasonalKind::kHistoricalMad),
      recent_residuals_(kind == SeasonalKind::kTsd ||
                        kind == SeasonalKind::kTsdMad),
      residuals_(ctx.points_per_day) {
  const std::size_t samples = recent_residuals_ ? win_weeks : 7 * win_weeks;
  slots_.reserve(period_);
  for (std::size_t i = 0; i < period_; ++i) slots_.emplace_back(samples);
}

std::string SeasonalDetector::name() const {
  const char* base = "tsd";
  switch (kind_) {
    case SeasonalKind::kTsd: base = "tsd"; break;
    case SeasonalKind::kTsdMad: base = "tsd_mad"; break;
    case SeasonalKind::kHistoricalAverage: base = "historical_average"; break;
    case SeasonalKind::kHistoricalMad: base = "historical_mad"; break;
  }
  std::ostringstream out;
  out << base << "(win=" << win_weeks_ << "w)";
  return out.str();
}

std::size_t SeasonalDetector::warmup_points() const {
  return recent_residuals_ ? ctx_.points_per_week : 3 * ctx_.points_per_day;
}

double SeasonalDetector::feed(double value) {
  const std::size_t slot = index_ % period_;
  ++index_;
  RingBuffer<double>& history = slots_[slot];

  double severity = 0.0;
  if (!util::is_missing(value) && history.size() >= 1) {
    history.copy_ordered(scratch_);
    const double center =
        robust_ ? util::median(scratch_) : util::mean(scratch_);
    if (!util::is_missing(center)) {
      const double residual = value - center;

      double scale = std::numeric_limits<double>::quiet_NaN();
      if (!recent_residuals_) {
        scale = robust_ ? util::mad(scratch_) : util::stddev(scratch_);
      } else if (residuals_.size() >= 16) {
        residuals_.copy_ordered(scratch_);
        scale = robust_ ? util::mad(scratch_) : util::stddev(scratch_);
      }
      const double floor_scale =
          std::abs(center) * kScaleEpsilonFraction + 1e-9;
      if (!util::is_missing(scale)) {
        severity = std::abs(residual) / std::max(scale, floor_scale);
      }
      if (recent_residuals_) residuals_.push(residual);
    }
  }
  if (!util::is_missing(value)) history.push(value);
  return detectors::sanitize_severity(severity);
}

void SeasonalDetector::reset() {
  for (auto& s : slots_) s.clear();
  residuals_.clear();
  index_ = 0;
}

// ---- Holt-Winters ----

HoltWintersDetector::HoltWintersDetector(double alpha, double beta,
                                         double gamma,
                                         const SeriesContext& ctx)
    : alpha_(alpha),
      beta_(beta),
      gamma_(gamma),
      season_length_(ctx.points_per_day) {
  first_day_.reserve(season_length_);
}

std::string HoltWintersDetector::name() const {
  std::ostringstream out;
  out << "holt_winters(a=" << alpha_ << ",b=" << beta_ << ",g=" << gamma_
      << ')';
  return out.str();
}

double HoltWintersDetector::feed(double value) {
  ++index_;
  if (!model_ready_) {
    if (!util::is_missing(value)) {
      first_day_.push_back(value);
    } else if (!first_day_.empty()) {
      first_day_.push_back(first_day_.back());
    }
    if (first_day_.size() >= season_length_) {
      level_ = util::mean(first_day_);
      trend_ = 0.0;
      season_.assign(season_length_, 0.0);
      for (std::size_t i = 0; i < season_length_; ++i) {
        season_[i] = first_day_[i] - level_;
      }
      model_ready_ = true;
    }
    return 0.0;
  }

  const std::size_t slot = (index_ - 1) % season_length_;
  const double forecast = level_ + trend_ + season_[slot];
  if (util::is_missing(value)) {
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
  season_[slot] = gamma_ * (value - level_) + (1.0 - gamma_) * season_[slot];
  return detectors::sanitize_severity(severity);
}

void HoltWintersDetector::reset() {
  season_.clear();
  level_ = 0.0;
  trend_ = 0.0;
  model_ready_ = false;
  first_day_.clear();
  index_ = 0;
}

// ---- name -> reference ----

detectors::DetectorPtr make_reference(const std::string& config_name,
                                      const SeriesContext& ctx) {
  const std::size_t open = config_name.find('(');
  const std::string family = config_name.substr(0, open);
  const std::string params = config_name.substr(open + 1);
  // Every reference family takes one to three leading numbers.
  const auto number_after = [&](const std::string& key) {
    const std::size_t at = params.find(key + "=");
    return std::stod(params.substr(at + key.size() + 1));
  };
  const auto integer_after = [&](const std::string& key) {
    return static_cast<std::size_t>(number_after(key));
  };
  if (family == "svd") {
    return std::make_unique<SvdDetector>(integer_after("row"),
                                         integer_after("col"));
  }
  if (family == "wavelet") {
    util::FrequencyBand band = util::FrequencyBand::kHigh;
    if (params.find("freq=low") != std::string::npos) {
      band = util::FrequencyBand::kLow;
    } else if (params.find("freq=mid") != std::string::npos) {
      band = util::FrequencyBand::kMid;
    }
    return std::make_unique<WaveletDetector>(integer_after("win"), band, ctx);
  }
  if (family == "holt_winters") {
    return std::make_unique<HoltWintersDetector>(
        number_after("a"), number_after("b"), number_after("g"), ctx);
  }
  const std::pair<const char*, SeasonalKind> kinds[] = {
      {"tsd", SeasonalKind::kTsd},
      {"tsd_mad", SeasonalKind::kTsdMad},
      {"historical_average", SeasonalKind::kHistoricalAverage},
      {"historical_mad", SeasonalKind::kHistoricalMad}};
  for (const auto& [name, kind] : kinds) {
    if (family == name) {
      return std::make_unique<SeasonalDetector>(kind, integer_after("win"),
                                                ctx);
    }
  }
  return nullptr;
}

}  // namespace opprentice::reference
