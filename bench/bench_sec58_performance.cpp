// §5.8: "Detection lag and training time."
//
// Paper numbers (Xeon E5-2420): feature extraction ~0.15 s/point over 133
// configurations, classification < 0.0001 s/point, offline training < 5
// minutes per round. Absolute numbers differ on this host; the claims to
// preserve are classification << extraction << data interval, and training
// far below the weekly retraining budget.
//
// `--json <file>` writes a machine-readable report (schema
// "opprentice.bench.metrics/1" with a "sec58" summary object; see
// DESIGN.md "Observability") whose `sec58.ordering_ok` asserts exactly
// that ordering, so CI can track the perf trajectory.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "detectors/feature_extractor.hpp"
#include "ml/binning.hpp"
#include "ml/decision_tree.hpp"
#include "ml/random_forest.hpp"
#include "obs/json_util.hpp"
#include "util/ascii_chart.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace opprentice;

namespace {

const core::ExperimentData& experiment() {
  static const core::ExperimentData data =
      bench::prepare_kpi(datagen::pv_preset(datagen::scale_from_env()));
  return data;
}

void BM_FeatureExtractionPerPoint(benchmark::State& state) {
  const auto& data = experiment();
  const detectors::SeriesContext ctx{data.series.points_per_day(),
                                     data.series.points_per_week()};
  detectors::StreamingExtractor extractor(
      detectors::standard_configurations(ctx));
  // Warm the detectors on two weeks of history first.
  std::size_t i = 0;
  const std::size_t warm = 2 * data.points_per_week;
  for (; i < warm && i < data.series.size(); ++i) {
    extractor.feed(data.series[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        extractor.feed(data.series[i % data.series.size()]));
    ++i;
  }
  state.SetLabel("all 133 configurations");
}
BENCHMARK(BM_FeatureExtractionPerPoint)->Unit(benchmark::kMicrosecond);

void BM_ClassificationPerPoint(benchmark::State& state) {
  const auto& data = experiment();
  ml::RandomForest forest(bench::standard_forest());
  forest.train(
      data.dataset.slice(data.warmup, 8 * data.points_per_week));
  const auto row = data.dataset.row(9 * data.points_per_week);
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.score(row));
  }
  state.SetLabel("random forest, 48 trees");
}
BENCHMARK(BM_ClassificationPerPoint)->Unit(benchmark::kMicrosecond);

// Thread-count sweep (arg = pool size). All parallel paths are
// bit-identical across the sweep (tests/parallel_equivalence_test.cpp);
// these benchmarks measure only how much wall clock the pool buys.
void BM_TrainingPerRound(benchmark::State& state) {
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  const auto& data = experiment();
  const ml::Dataset train =
      data.dataset.slice(data.warmup, 8 * data.points_per_week);
  for (auto _ : state) {
    ml::RandomForest forest(bench::standard_forest());
    forest.train(train);
    benchmark::DoNotOptimize(forest.tree_count());
  }
  state.SetLabel(std::to_string(train.num_rows()) + " rows x 133 features");
  util::set_global_threads(0);
}
BENCHMARK(BM_TrainingPerRound)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Quantizing one retraining window (the served path's 1,152-row bound)
// into 133 binned columns: the first step of every forest train. Pinned
// to one thread, as the served path's retrains are.
void BM_BinnedDataset(benchmark::State& state) {
  util::set_global_threads(1);
  const auto& data = experiment();
  const ml::Dataset window =
      data.dataset.slice(data.warmup, data.warmup + 1152);
  for (auto _ : state) {
    const ml::BinnedDataset binned(window);
    benchmark::DoNotOptimize(binned.codes(0).data());
  }
  state.SetLabel(std::to_string(window.num_rows()) + " rows x " +
                 std::to_string(window.num_features()) + " features");
  util::set_global_threads(0);
}
BENCHMARK(BM_BinnedDataset)->Unit(benchmark::kMillisecond);

// Growing the trees of one served-path retrain (16, `serve`'s default,
// with the forest's default mtry, seeds and bootstrap draws) on the same
// window, already binned: the rest of a train after binning. Pinned to
// one thread.
void BM_ForestGrowth(benchmark::State& state) {
  util::set_global_threads(1);
  const auto& data = experiment();
  const ml::Dataset window =
      data.dataset.slice(data.warmup, data.warmup + 1152);
  const ml::BinnedDataset binned(window);
  constexpr std::size_t kTrees = 16;
  const auto mtry = static_cast<std::size_t>(
      std::sqrt(static_cast<double>(window.num_features())));
  util::Rng rng(42);
  std::vector<ml::TreeOptions> tree_options(kTrees);
  std::vector<std::vector<std::uint32_t>> counts(kTrees);
  for (std::size_t t = 0; t < kTrees; ++t) {
    tree_options[t].mtry = mtry;
    tree_options[t].seed = rng.next_u64();
    counts[t].assign(window.num_rows(), 0);
    for (std::size_t s = 0; s < window.num_rows(); ++s) {
      ++counts[t][rng.uniform_int(window.num_rows())];
    }
  }
  for (auto _ : state) {
    std::size_t nodes = 0;
    for (std::size_t t = 0; t < kTrees; ++t) {
      ml::DecisionTree tree(tree_options[t]);
      tree.train_binned(binned, counts[t]);
      nodes += tree.node_count();
    }
    benchmark::DoNotOptimize(nodes);
  }
  state.SetLabel(std::to_string(kTrees) + " trees, " +
                 std::to_string(window.num_rows()) + " rows x " +
                 std::to_string(window.num_features()) + " features");
  util::set_global_threads(0);
}
BENCHMARK(BM_ForestGrowth)->Unit(benchmark::kMillisecond);

// Batch extraction of all 133 configurations over the full series — the
// §5.8 "all the detectors can run in parallel" claim, realized by the
// pool (one task per configuration).
void BM_BatchExtraction(benchmark::State& state) {
  util::set_global_threads(static_cast<std::size_t>(state.range(0)));
  const auto& data = experiment();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        detectors::extract_standard_features(data.series));
  }
  state.SetLabel(std::to_string(data.series.size()) +
                 " points x 133 configurations");
  util::set_global_threads(0);
}
BENCHMARK(BM_BatchExtraction)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_FiveFoldCthld(benchmark::State& state) {
  const auto& data = experiment();
  const ml::Dataset train =
      data.dataset.slice(data.warmup, 8 * data.points_per_week);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::five_fold_cthld(
        train, bench::kPaperPreference, bench::standard_forest()));
  }
  state.SetLabel("5 forests + 1000-candidate sweep");
}
BENCHMARK(BM_FiveFoldCthld)->Unit(benchmark::kMillisecond)->Iterations(1);

// Per-family extraction cost: where the 0.15 s/point budget goes. The
// paper notes "all the detectors can run in parallel", so the per-family
// figures are also the per-worker costs of a parallel deployment.
void BM_FamilyPerPoint(benchmark::State& state, const std::string& family) {
  const auto& data = experiment();
  const detectors::SeriesContext ctx{data.series.points_per_day(),
                                     data.series.points_per_week()};
  auto configs = detectors::DetectorRegistry::with_standard_families()
                     .instantiate_family(family, ctx);
  std::size_t i = 0;
  const std::size_t warm =
      std::min<std::size_t>(2 * data.points_per_week, data.series.size());
  for (; i < warm; ++i) {
    for (auto& d : configs) d->feed(data.series[i]);
  }
  for (auto _ : state) {
    double sum = 0.0;
    for (auto& d : configs) {
      sum += d->feed(data.series[i % data.series.size()]);
    }
    benchmark::DoNotOptimize(sum);
    ++i;
  }
  state.SetLabel(std::to_string(configs.size()) + " configurations");
}

const int kFamilyBenchmarks = [] {
  for (const char* family :
       {"simple_threshold", "diff", "simple_ma", "weighted_ma", "ma_of_diff",
        "ewma", "tsd", "tsd_mad", "historical_average", "historical_mad",
        "holt_winters", "svd", "wavelet", "arima"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_Family/") + family).c_str(),
        [family](benchmark::State& state) {
          BM_FamilyPerPoint(state, family);
        })
        ->Unit(benchmark::kMicrosecond);
  }
  return 0;
}();

// Whether the console table is coloured, as --benchmark_color sets it for
// benchmark's own reporter: "auto" (the default) colours a terminal only.
// Read before benchmark::Initialize, which consumes the flag.
bool console_color(int argc, char** argv) {
  std::string value = "auto";
  const std::string flag = "--benchmark_color=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.compare(0, flag.size(), flag) == 0) value = arg.substr(flag.size());
  }
  for (char& c : value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (value == "auto") return isatty(fileno(stdout)) != 0;
  return value == "1" || value == "t" || value == "true" || value == "y" ||
         value == "yes" || value == "on";
}

// Keeps console output and captures per-iteration runs for the --json
// report.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit CaptureReporter(bool color)
      : benchmark::ConsoleReporter(color ? OO_ColorTabular : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& report) override {
    // Keep per-iteration runs only (aggregates reappear under
    // --benchmark_repetitions); erroneous runs report zero time and are
    // filtered by the `> 0` guards below. The field reporting errors is
    // not used because its name changed across benchmark versions.
    for (const auto& run : report) {
      if (run.run_type == Run::RT_Iteration) runs_.push_back(run);
    }
    ConsoleReporter::ReportRuns(report);
  }

  // Seconds per iteration of the last run whose name matches `name`,
  // ignoring trailing decorations benchmark appends after a '/' (e.g.
  // Iterations(1) turns ".../threads:1" into ".../threads:1/iterations:1");
  // negative when absent.
  double seconds_per_iter(const std::string& name) const {
    double result = -1.0;
    for (const auto& run : runs_) {
      const std::string run_name = run.run_name.str();
      const bool matches =
          run_name == name ||
          (run_name.size() > name.size() &&
           run_name.compare(0, name.size(), name) == 0 &&
           run_name[name.size()] == '/');
      if (matches && run.iterations > 0) {
        result = run.real_accumulated_time /
                 static_cast<double>(run.iterations);
      }
    }
    return result;
  }

  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

// Renders the "benchmarks" array and the "sec58" summary object with the
// §5.8 ordering claims evaluated on this host's numbers.
std::string render_report(const CaptureReporter& reporter) {
  std::string out = "\"benchmarks\": [";
  bool first = true;
  for (const auto& run : reporter.runs()) {
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\": ";
    obs::append_json_string(out, run.run_name.str());
    out += ", \"iterations\": " + std::to_string(run.iterations);
    out += ", \"real_us_per_iter\": ";
    obs::append_json_double(
        out, 1e6 * run.real_accumulated_time /
                 static_cast<double>(run.iterations));
    out += ", \"cpu_us_per_iter\": ";
    obs::append_json_double(
        out, 1e6 * run.cpu_accumulated_time /
                 static_cast<double>(run.iterations));
    if (!run.report_label.empty()) {
      out += ", \"label\": ";
      obs::append_json_string(out, run.report_label);
    }
    out += '}';
  }
  out += "\n],\n";

  const double extraction_s =
      reporter.seconds_per_iter("BM_FeatureExtractionPerPoint");
  const double classification_s =
      reporter.seconds_per_iter("BM_ClassificationPerPoint");
  // Serial baseline (threads:1) carries the canonical §5.8 numbers; the
  // other sweep points feed speedup_vs_serial below.
  const double training_s =
      reporter.seconds_per_iter("BM_TrainingPerRound/threads:1");
  const double five_fold_s = reporter.seconds_per_iter("BM_FiveFoldCthld");
  const double binning_s = reporter.seconds_per_iter("BM_BinnedDataset");
  const double growth_s = reporter.seconds_per_iter("BM_ForestGrowth");
  const double interval_s =
      static_cast<double>(experiment().series.interval_seconds());

  // §5.8 claims, evaluated when both sides were measured (a filtered run
  // leaves some fields at null and ordering_ok at false).
  const bool measured = extraction_s > 0.0 && classification_s > 0.0;
  const bool classification_lt_extraction =
      measured && classification_s < extraction_s;
  const bool extraction_lt_interval =
      extraction_s > 0.0 && extraction_s < interval_s;
  const bool training_lt_5min = training_s > 0.0 && training_s < 300.0;
  // cThld selection (5-fold cross-validation, §4.3.3) runs once per week
  // alongside training; both must fit the same offline budget.
  const bool five_fold_lt_5min = five_fold_s > 0.0 && five_fold_s < 300.0;

  auto us_or_null = [](std::string& doc, double seconds) {
    obs::append_json_double(doc, seconds > 0.0 ? seconds * 1e6 : -1.0);
  };
  out += "\"sec58\": {\n";
  out += "  \"data_interval_s\": ";
  obs::append_json_double(out, interval_s);
  out += ",\n  \"extraction_us_per_point\": ";
  us_or_null(out, extraction_s);
  out += ",\n  \"classification_us_per_point\": ";
  us_or_null(out, classification_s);
  out += ",\n  \"training_ms_per_round\": ";
  obs::append_json_double(out, training_s > 0.0 ? training_s * 1e3 : -1.0);
  out += ",\n  \"five_fold_cthld_ms\": ";
  obs::append_json_double(out, five_fold_s > 0.0 ? five_fold_s * 1e3 : -1.0);
  out += ",\n  \"binning_ms_per_round\": ";
  obs::append_json_double(out, binning_s > 0.0 ? binning_s * 1e3 : -1.0);
  out += ",\n  \"tree_growth_ms_per_round\": ";
  obs::append_json_double(out, growth_s > 0.0 ? growth_s * 1e3 : -1.0);
  out += ",\n  \"classification_lt_extraction\": ";
  out += classification_lt_extraction ? "true" : "false";
  out += ",\n  \"extraction_lt_interval\": ";
  out += extraction_lt_interval ? "true" : "false";
  out += ",\n  \"training_lt_5min\": ";
  out += training_lt_5min ? "true" : "false";
  out += ",\n  \"five_fold_lt_5min\": ";
  out += five_fold_lt_5min ? "true" : "false";
  out += ",\n  \"ordering_ok\": ";
  out += (classification_lt_extraction && extraction_lt_interval) ? "true"
                                                                  : "false";
  // The weekly offline budget (§5.8: "less than 5 minutes"): one training
  // round plus one 5-fold cThld selection.
  out += ",\n  \"weekly_budget_ok\": ";
  out += (training_lt_5min && five_fold_lt_5min) ? "true" : "false";

  // Thread-count sweep: wall-clock speedup of the pooled paths over their
  // own threads:1 run. `cpu_starved` is true when the host has fewer
  // cores than the widest sweep point — there the t2/t4 rows contend for
  // the same cores and speedup_vs_serial < 1 is expected, not a
  // regression. The determinism contract guarantees the outputs are
  // identical either way.
  const unsigned hw = std::thread::hardware_concurrency();
  out += ",\n  \"threads\": {\"hardware_concurrency\": " +
         std::to_string(hw) +
         ", \"effective_threads\": " +
         std::to_string(util::global_thread_count()) +
         ", \"sweep\": [1, 2, 4], \"cpu_starved\": ";
  out += hw < 4 ? "true" : "false";
  out += "}";
  out += ",\n  \"speedup_vs_serial\": {";
  bool first_path = true;
  for (const auto& [key, base_name] :
       {std::pair<const char*, const char*>{"extraction",
                                            "BM_BatchExtraction"},
        std::pair<const char*, const char*>{"training",
                                            "BM_TrainingPerRound"}}) {
    const double serial_s = reporter.seconds_per_iter(
        std::string(base_name) + "/threads:1");
    if (!first_path) out += ", ";
    first_path = false;
    out += '"';
    out += key;
    out += "\": {";
    bool first_count = true;
    for (int t : {2, 4}) {
      const double t_s = reporter.seconds_per_iter(
          std::string(base_name) + "/threads:" + std::to_string(t));
      if (!first_count) out += ", ";
      first_count = false;
      out += "\"t" + std::to_string(t) + "\": ";
      obs::append_json_double(
          out, serial_s > 0.0 && t_s > 0.0 ? serial_s / t_s : -1.0);
    }
    out += '}';
  }
  out += "}";
  out += "\n}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Session session(argc, argv);
  CaptureReporter reporter(console_color(argc, argv));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Where the extraction budget actually goes, per configuration — only
  // populated when --json enabled detailed timing.
  const auto cost_rows = obs::CostAttribution::instance().snapshot();
  if (!cost_rows.empty()) {
    std::vector<std::vector<std::string>> cells;
    for (std::size_t i = 0; i < cost_rows.size() && i < 10; ++i) {
      const auto& r = cost_rows[i];
      cells.push_back({r.configuration, std::to_string(r.count),
                       util::format_double(r.mean_us, 2),
                       util::format_double(100.0 * r.share, 1) + "%"});
    }
    std::printf("\ntop %zu most expensive configurations (of %zu):\n%s",
                cells.size(), cost_rows.size(),
                util::render_table(
                    {"configuration", "points", "mean_us", "share"}, cells)
                    .c_str());
  }

  if (!session.json_path().empty()) {
    session.set_extra_json(render_report(reporter));
    if (!reporter.runs().empty() &&
        reporter.seconds_per_iter("BM_FeatureExtractionPerPoint") > 0.0 &&
        reporter.seconds_per_iter("BM_ClassificationPerPoint") > 0.0) {
      std::printf("sec58 --json: ordering summary written\n");
    }
  }
  return 0;
}
