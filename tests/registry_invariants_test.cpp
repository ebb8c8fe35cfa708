// Registry invariants (paper Table 3): 133 configurations, unique names,
// per-family sampling grids, and the severity contract on randomized
// series. The same invariants gate the build through `opprentice_lint`;
// this test exercises them in-process and on randomized (seeded) inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "../tools/registry_lint.hpp"
#include "detectors/detector.hpp"
#include "detectors/registry.hpp"
#include "util/rng.hpp"

namespace {

using opprentice::detectors::DetectorPtr;
using opprentice::detectors::DetectorRegistry;
using opprentice::detectors::SeriesContext;
using opprentice::tools::FamilySpec;
using opprentice::tools::parse_config_name;
using opprentice::tools::table3_specs;

// Compact calendar so seasonal warm-ups stay small.
SeriesContext small_ctx() {
  return {.points_per_day = 24, .points_per_week = 168};
}

std::vector<DetectorPtr> standard_configs() {
  return DetectorRegistry::with_standard_families().instantiate_all(
      small_ctx());
}

TEST(RegistryInvariants, Exactly133Configurations) {
  const auto configs = standard_configs();
  EXPECT_EQ(configs.size(),
            opprentice::detectors::kStandardConfigurationCount);
  EXPECT_EQ(configs.size(), 133u);
}

TEST(RegistryInvariants, ConfigurationNamesAreUnique) {
  std::set<std::string> names;
  for (const auto& config : standard_configs()) {
    EXPECT_TRUE(names.insert(config->name()).second)
        << "duplicate configuration name: " << config->name();
  }
  EXPECT_EQ(names.size(), 133u);
}

TEST(RegistryInvariants, FamilyExpansionMatchesTable3) {
  const auto registry = DetectorRegistry::with_standard_families();
  std::size_t total = 0;
  for (const FamilySpec& spec : table3_specs()) {
    ASSERT_TRUE(registry.has_family(spec.family))
        << "missing family: " << spec.family;
    const auto family =
        registry.instantiate_family(spec.family, small_ctx());
    EXPECT_EQ(family.size(), spec.expected_configs)
        << "family " << spec.family;
    total += family.size();
  }
  EXPECT_EQ(total, 133u);
  EXPECT_EQ(registry.family_count(), table3_specs().size());
}

TEST(RegistryInvariants, ParametersInsideDeclaredSamplingGrids) {
  const auto& specs = table3_specs();
  for (const auto& config : standard_configs()) {
    const auto parsed = parse_config_name(config->name());
    ASSERT_TRUE(parsed.valid) << "unparseable name: " << config->name();
    const auto spec_it = std::find_if(
        specs.begin(), specs.end(),
        [&parsed](const FamilySpec& s) { return s.family == parsed.family; });
    ASSERT_NE(spec_it, specs.end())
        << "unknown family in name: " << config->name();
    EXPECT_EQ(parsed.params.size(), spec_it->allowed_values.size())
        << config->name();
    for (const auto& [key, value] : parsed.params) {
      const auto allowed_it = spec_it->allowed_values.find(key);
      ASSERT_NE(allowed_it, spec_it->allowed_values.end())
          << config->name() << ": undeclared parameter " << key;
      EXPECT_NE(std::find(allowed_it->second.begin(),
                          allowed_it->second.end(), value),
                allowed_it->second.end())
          << config->name() << ": " << key << "=" << value
          << " outside sampling grid";
    }
  }
}

TEST(RegistryInvariants, SeveritiesNonNegativeOnRandomizedSeries) {
  const SeriesContext ctx = small_ctx();
  for (const std::uint64_t seed : {7ull, 1234ull, 0xDEADBEEFull}) {
    opprentice::util::Rng rng(seed);
    std::vector<double> series(2 * ctx.points_per_week);
    for (double& v : series) v = rng.normal(50.0, 15.0);
    // Dirty data and extremes must not break the severity domain.
    series[ctx.points_per_day] = std::nan("");
    series[ctx.points_per_day + 1] = std::nan("");
    series[series.size() / 2] = -1e6;
    series[series.size() / 2 + 1] = 1e6;

    auto configs =
        DetectorRegistry::with_standard_families().instantiate_all(ctx);
    for (auto& config : configs) {
      for (std::size_t i = 0; i < series.size(); ++i) {
        const double severity = config->feed(series[i]);
        ASSERT_FALSE(std::isnan(severity))
            << config->name() << " emitted NaN at " << i << " (seed " << seed
            << ")";
        ASSERT_FALSE(std::isinf(severity))
            << config->name() << " emitted inf at " << i;
        ASSERT_GE(severity, 0.0)
            << config->name() << " emitted negative severity at " << i;
      }
    }
  }
}

TEST(RegistryInvariants, ResetRestoresConstructedState) {
  const SeriesContext ctx = small_ctx();
  opprentice::util::Rng rng(99);
  std::vector<double> series(ctx.points_per_week + ctx.points_per_day);
  for (double& v : series) v = rng.normal(100.0, 10.0);

  for (auto& config : standard_configs()) {
    std::vector<double> first;
    first.reserve(series.size());
    for (double v : series) first.push_back(config->feed(v));
    config->reset();
    for (std::size_t i = 0; i < series.size(); ++i) {
      ASSERT_EQ(config->feed(series[i]), first[i])
          << config->name() << " diverges after reset() at point " << i;
    }
  }
}

TEST(RegistryInvariants, LinterAcceptsStandardRegistry) {
  const auto report = opprentice::tools::lint_registry(
      DetectorRegistry::with_standard_families());
  EXPECT_TRUE(report.ok()) << opprentice::tools::format_report(report, true);
}

TEST(RegistryInvariants, LinterAlignmentAcceptsStandardRegistry) {
  const auto report = opprentice::tools::lint_dataset_alignment(
      DetectorRegistry::with_standard_families());
  EXPECT_TRUE(report.ok()) << opprentice::tools::format_report(report, true);
}

TEST(RegistryInvariants, LinterSelfTestCatchesPlantedDefects) {
  const auto report = opprentice::tools::lint_self_test();
  EXPECT_TRUE(report.ok()) << opprentice::tools::format_report(report, true);
}

// Known fidelity gap, pinned so it cannot change silently: at 144
// points/day util::floor_pow2 maps the 3-, 5- and 7-day wavelet windows
// (432, 720, 1008 points) to 256, 512 and 512, so wavelet(win=5d,*) and
// wavelet(win=7d,*) emit identical columns and 3 of the 133 features are
// duplicates. Changing the window semantics would move the AUCPR
// baselines; see ROADMAP's open fidelity questions.
TEST(RegistryInvariants, WaveletFiveAndSevenDayWindowsCoincide) {
  const SeriesContext ctx{.points_per_day = 144, .points_per_week = 1008};
  const auto wavelets =
      DetectorRegistry::with_standard_families().instantiate_family("wavelet",
                                                                    ctx);
  ASSERT_EQ(wavelets.size(), 9u);
  std::map<std::string, std::size_t> window_of_day;
  for (const auto& d : wavelets) {
    const auto parsed = parse_config_name(d->name());
    ASSERT_TRUE(parsed.valid) << d->name();
    window_of_day[parsed.params.at("win")] = d->warmup_points();
  }
  EXPECT_EQ(window_of_day, (std::map<std::string, std::size_t>{
                               {"3d", 256}, {"5d", 512}, {"7d", 512}}));

  opprentice::util::Rng rng(2015);
  std::vector<double> series(3 * ctx.points_per_week);
  for (std::size_t i = 0; i < series.size(); ++i) {
    series[i] = 100.0 + 20.0 * std::sin(static_cast<double>(i) / 23.0) +
                rng.normal(0.0, 3.0);
  }
  std::map<std::string, std::vector<double>> columns;
  for (const auto& d : wavelets) {
    std::vector<double>& column = columns[d->name()];
    for (double v : series) column.push_back(d->feed(v));
  }
  for (const char* band : {"low", "mid", "high"}) {
    const std::string suffix = std::string("d,freq=") + band + ")";
    const auto& five = columns.at("wavelet(win=5" + suffix);
    const auto& seven = columns.at("wavelet(win=7" + suffix);
    const auto& three = columns.at("wavelet(win=3" + suffix);
    EXPECT_EQ(five, seven) << band;
    EXPECT_NE(three, five) << band;
  }
}

TEST(RegistryInvariants, NameParserHandlesGrammar) {
  auto parsed = parse_config_name("ewma(alpha=0.3)");
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.family, "ewma");
  EXPECT_EQ(parsed.params.at("alpha"), "0.3");

  parsed = parse_config_name("simple_threshold");
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.family, "simple_threshold");
  EXPECT_TRUE(parsed.params.empty());

  parsed = parse_config_name("svd(row=10,col=3)");
  ASSERT_TRUE(parsed.valid);
  EXPECT_EQ(parsed.params.size(), 2u);

  EXPECT_FALSE(parse_config_name("").valid);
  EXPECT_FALSE(parse_config_name("bad(open").valid);
  EXPECT_FALSE(parse_config_name("(noname)").valid);
  EXPECT_FALSE(parse_config_name("dup(a=1,a=2)").valid);
}

}  // namespace
