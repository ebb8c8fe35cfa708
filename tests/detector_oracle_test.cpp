// Differential oracle for the incremental detectors: every configuration
// of the svd, wavelet, tsd, tsd_mad, historical_average, historical_mad
// and holt_winters families against the implementation it replaced
// (tests/reference), on every datagen preset and on adversarial inputs.
//
// Contract:
//  - svd and tsd match within 1e-9 * max(|reference|, largest |value| in
//    the detector's window); svd only where sigma1/sigma2 > 1 + 1e-6,
//    since u1 is not unique below that;
//  - wavelet, tsd_mad, historical_average, historical_mad and
//    holt_winters are bit-identical;
//  - reset() mid-warm-up (mid-bootstrap for holt_winters) and mid-stream
//    behaves exactly like a freshly built detector.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "datagen/kpi_presets.hpp"
#include "detectors/registry.hpp"
#include "detectors/svd_detector.hpp"
#include "reference/detectors.hpp"
#include "util/rng.hpp"

namespace {

using namespace opprentice;
using detectors::DetectorPtr;
using detectors::SeriesContext;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kRelTolerance = 1e-9;
constexpr double kSvdMinSingularRatio = 1.0 + 1e-6;

const char* const kFamilies[] = {"svd",     "wavelet",
                                 "tsd",     "tsd_mad",
                                 "historical_average", "historical_mad",
                                 "holt_winters"};

bool bit_exact(const std::string& family) {
  return family != "svd" && family != "tsd";
}

struct Input {
  std::string name;
  SeriesContext ctx;
  std::vector<double> values;
};

// 10-minute calendar of the served path: 144 points a day, 1008 a week.
constexpr SeriesContext kTenMinute{144, 1008};

std::vector<double> noisy_daily(std::size_t n, double level, double noise,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double phase =
        2.0 * 3.14159265358979 * static_cast<double>(i % 144) / 144.0;
    xs[i] = level * (1.0 + 0.3 * std::sin(phase)) + rng.normal(0.0, noise);
    if (rng.uniform() < 0.004) xs[i] += level * rng.uniform(0.5, 2.0);
  }
  return xs;
}

Input preset_input(const char* name, const datagen::KpiPreset& preset) {
  datagen::KpiModel model = preset.model;
  model.weeks = 6;  // long enough for every 5-week window to fill
  const auto kpi = datagen::generate_kpi(model, preset.injection);
  const auto values = kpi.series.values();
  return {name,
          {kpi.series.points_per_day(), kpi.series.points_per_week()},
          {values.begin(), values.end()}};
}

std::vector<Input> all_inputs() {
  std::vector<Input> inputs;
  inputs.push_back(preset_input("pv", datagen::pv_preset()));
  inputs.push_back(preset_input("sr", datagen::sr_preset()));
  inputs.push_back(preset_input("srt", datagen::srt_preset()));

  const std::size_t n = 3 * kTenMinute.points_per_week;
  {
    // NaN run before the first value, and another mid-stream.
    std::vector<double> xs = noisy_daily(n, 500.0, 10.0, 3);
    std::fill(xs.begin(), xs.begin() + 400, kNaN);
    std::fill(xs.begin() + 1500, xs.begin() + 1530, kNaN);
    inputs.push_back({"nan_runs", kTenMinute, xs});
  }
  inputs.push_back({"constant", kTenMinute, std::vector<double>(n, 42.0)});
  inputs.push_back({"zeros", kTenMinute, std::vector<double>(n, 0.0)});
  {
    std::vector<double> xs = noisy_daily(n, 1.0, 0.02, 5);
    for (double& x : xs) x *= 1e12;
    inputs.push_back({"magnitude_1e12", kTenMinute, xs});
  }
  {
    // Up by 1e4, back down, then from 1e12 to unit scale: sliding sums
    // must not keep the cancellation error of the values that left.
    std::vector<double> xs = noisy_daily(n, 100.0, 2.0, 7);
    for (std::size_t i = n / 4; i < n / 2; ++i) xs[i] += 1e4;
    for (std::size_t i = n / 2; i < 3 * n / 4; ++i) xs[i] *= 1e10;
    inputs.push_back({"level_shifts", kTenMinute, xs});
  }
  {
    // A NaN run that starts inside the first day (Holt-Winters holds the
    // last value through the rest of its bootstrap) and outlasts it.
    std::vector<double> xs = noisy_daily(n, 500.0, 10.0, 11);
    std::fill(xs.begin() + 60, xs.begin() + 260, kNaN);
    inputs.push_back({"nan_in_bootstrap", kTenMinute, xs});
  }
  {
    // A NaN run longer than a day: every historical slot and 300 of the
    // 1008 TSD slots skip a sample, so slot rings fill unevenly.
    std::vector<double> xs = noisy_daily(n, 500.0, 10.0, 13);
    std::fill(xs.begin() + 1200, xs.begin() + 1500, kNaN);
    inputs.push_back({"nan_over_a_day", kTenMinute, xs});
  }
  return inputs;
}

const std::vector<Input>& inputs() {
  static const std::vector<Input> kInputs = all_inputs();
  return kInputs;
}

std::vector<DetectorPtr> production_family(const std::string& family,
                                           const SeriesContext& ctx) {
  return detectors::DetectorRegistry::with_standard_families()
      .instantiate_family(family, ctx);
}

// Largest |value| among the last `window` points the detector holds
// (missing points hold the last present value).
class HeldWindowMax {
 public:
  explicit HeldWindowMax(std::size_t window) : window_(window) {}
  void push(double value) {
    if (!std::isnan(value)) {
      last_ = value;
      has_last_ = true;
    }
    if (has_last_) held_.push_back(std::abs(last_));
  }
  double max() const {
    const std::size_t n = std::min(window_, held_.size());
    return n == 0 ? 0.0
                  : *std::max_element(held_.end() - static_cast<long>(n),
                                      held_.end());
  }

 private:
  std::size_t window_;
  std::vector<double> held_;
  double last_ = 0.0;
  bool has_last_ = false;
};

class OracleDifferential : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OracleDifferential, EveryConfigurationMatchesReference) {
  const Input& input = inputs()[GetParam()];
  for (const std::string family : kFamilies) {
    for (auto& production : production_family(family, input.ctx)) {
      const std::string name = production->name();
      auto reference = reference::make_reference(name, input.ctx);
      ASSERT_NE(reference, nullptr) << name;
      auto* svd_reference =
          dynamic_cast<reference::SvdDetector*>(reference.get());
      HeldWindowMax window_max(production->warmup_points());
      std::size_t compared = 0;
      for (std::size_t i = 0; i < input.values.size(); ++i) {
        const double x = input.values[i];
        window_max.push(x);
        const double got = production->feed(x);
        const double want = reference->feed(x);
        if (bit_exact(family)) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(want))
              << input.name << " " << name << " at " << i << ": " << got
              << " vs " << want;
          ++compared;
          continue;
        }
        if (svd_reference != nullptr &&
            !(svd_reference->last_singular_ratio() > kSvdMinSingularRatio)) {
          continue;
        }
        const double bound =
            kRelTolerance * std::max(std::abs(want), window_max.max());
        ASSERT_LE(std::abs(got - want), bound)
            << input.name << " " << name << " at " << i << ": " << got
            << " vs " << want;
        ++compared;
      }
      EXPECT_GT(compared, input.values.size() / 2) << input.name << " " << name;
    }
  }
}

// Feeds values[begin, end) to a second copy of every configuration,
// resets it, then checks it against a fresh copy over the whole input.
void expect_reset_equals_fresh(const Input& input, std::size_t begin,
                               std::size_t end) {
  for (const std::string family : kFamilies) {
    auto fresh = production_family(family, input.ctx);
    auto reused = production_family(family, input.ctx);
    for (std::size_t c = 0; c < fresh.size(); ++c) {
      for (std::size_t i = begin; i < end; ++i) {
        reused[c]->feed(input.values[i]);
      }
      reused[c]->reset();
      for (std::size_t i = 0; i < input.values.size(); ++i) {
        const double a = fresh[c]->feed(input.values[i]);
        const double b = reused[c]->feed(input.values[i]);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(b))
            << input.name << " " << fresh[c]->name() << " at " << i;
      }
    }
  }
}

TEST_P(OracleDifferential, ResetMidStreamEqualsFreshDetector) {
  // Leave every piece of incremental state mid-flight, then reset.
  const Input& input = inputs()[GetParam()];
  expect_reset_equals_fresh(input, input.values.size() / 2,
                            input.values.size());
}

TEST_P(OracleDifferential, ResetMidBootstrapEqualsFreshDetector) {
  // Half a day: Holt-Winters is half-way through its bootstrap day and
  // every other family is still warming up.
  const Input& input = inputs()[GetParam()];
  expect_reset_equals_fresh(input, 0, input.ctx.points_per_day / 2);
}

std::string input_name(const ::testing::TestParamInfo<std::size_t>& info) {
  return inputs()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(Inputs, OracleDifferential,
                         ::testing::Range<std::size_t>(0, 10), input_name);

TEST(OracleAdversarial, InputListCoversEveryInstantiation) {
  EXPECT_EQ(inputs().size(), 10u);
}

TEST(OracleAdversarial, EqualSingularValuesTakeJacobiFallback) {
  // Past segments {1,1,1,1,1,0,0,0,0,0} and {0,0,0,0,0,1,1,1,1,1} are
  // orthogonal with equal energy: sigma1 == sigma2, so power iteration
  // cannot certify a top eigenvector and must fall back to Jacobi.
  detectors::SvdDetector production(10, 3);
  reference::SvdDetector oracle(10, 3);
  std::vector<double> xs;
  for (std::size_t i = 0; i < 10; ++i) xs.push_back(i < 5 ? 1.0 : 0.0);
  for (std::size_t i = 0; i < 10; ++i) xs.push_back(i < 5 ? 0.0 : 1.0);
  for (std::size_t i = 0; i < 10; ++i) xs.push_back(0.5);
  double severity = 0.0;
  for (double x : xs) {
    severity = production.feed(x);
    oracle.feed(x);
  }
  EXPECT_EQ(oracle.last_singular_ratio(), 1.0);
  EXPECT_GE(production.jacobi_fallbacks(), 1u);
  EXPECT_TRUE(std::isfinite(severity));
  EXPECT_GE(severity, 0.0);
  // Either unit eigenvector is a valid u1 here; the fallback breaks the
  // tie towards the first, which reconstructs nothing of the newest row.
  EXPECT_DOUBLE_EQ(severity, 0.5);
}

TEST(OracleAdversarial, ConstantSeriesUsesScaleFloorAndZeroEnergyPath) {
  const SeriesContext ctx = kTenMinute;
  for (const double level : {0.0, 42.0}) {
    for (const std::string family : kFamilies) {
      for (auto& d : production_family(family, ctx)) {
        double last = -1.0;
        for (std::size_t i = 0; i < 2 * ctx.points_per_week; ++i) {
          last = d->feed(level);
        }
        // A flat history has nothing to flag: the SVD's zero-energy path
        // returns the (zero) newest point, the seasonal scales hit their
        // floor with a zero residual, and every band is empty.
        EXPECT_LE(last, 1e-9 * std::max(1.0, level))
            << d->name() << " level " << level;
      }
    }
  }
}

}  // namespace
