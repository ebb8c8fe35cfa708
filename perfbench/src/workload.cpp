#include "workload.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/retrain_scheduler.hpp"
#include "datagen/kpi_presets.hpp"
#include "detectors/registry.hpp"
#include "labeling/operator_model.hpp"
#include "net/framing.hpp"
#include "util/fault_injection.hpp"

namespace perfbench {
namespace core = opprentice::core;
namespace datagen = opprentice::datagen;
namespace detectors = opprentice::detectors;
namespace net = opprentice::net;
namespace ts = opprentice::ts;
namespace util = opprentice::util;

namespace {

constexpr std::uint64_t kDefectSalt = 0xD1E7'5EED'0000'0001ull;
constexpr std::uint64_t kSeqSalt = 0x5E0'5EED'0000'0002ull;
constexpr double kSpike = 6.0;   // fleet_wire anomaly: a labeled spike
constexpr std::size_t kSpikeEvery = 37;

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "fullbank_serve") {
    // 24 PV/#SR-like series on all 133 configurations, one point per
    // frame, weekly retrains: two weeks of set-up (warm-up, then every
    // phase's first retrain), then one timed week in which every series
    // retrains exactly once — 24 retrain ticks out of 1008, 42 apart.
    spec.series = 24;
    spec.frame_points = 1;
    spec.retrain_interval = kPointsPerWeek;
    spec.bank = Bank::kFull;
    spec.data = DataKind::kDatagen;
    spec.setup_ticks = 2 * kPointsPerWeek;
    spec.timed_ticks = kPointsPerWeek;
    spec.reps = 2;
    spec.reference_series = 24;
  } else if (name == "fleet_wire") {
    // 1792 synthetic series on the lite bank, 8-point staggered frames:
    // 56 DATA frames per source per tick plus ~3 LABEL frames, under the
    // server's 64-frame queue. Each stagger class deals its 224 series
    // round-robin over 126 retrain slots, so ticks 0-783 of the week
    // retrain two series and the rest one; the timed ticks (8-519 of
    // the third week) all retrain two.
    spec.series = 1792;
    spec.frame_points = 8;
    spec.retrain_interval = kPointsPerWeek;
    spec.bank = Bank::kLite;
    spec.data = DataKind::kSyntheticSpiked;
    spec.setup_ticks = 2 * kPointsPerWeek + 8;
    spec.timed_ticks = 512;
    spec.reps = 2;
    spec.reference_series = 16;
  } else if (name == "dirty_retrain") {
    // 288 PV/#SR-like series on the lite bank with daily retrains and
    // seeded wire defects in 8-point frames. Each stagger class deals
    // its 36 series over its 18 retrain slots, so every tick is due to
    // retrain exactly two series (fewer when a window has no positive
    // label): p50 and p99 read the same mode. Set-up fills the 4-day
    // history before 8 timed days, so the 1% of samples beyond p99 span
    // about a dozen ticks.
    spec.series = 288;
    spec.frame_points = 8;
    spec.retrain_interval = kPointsPerDay;
    spec.bank = Bank::kLite;
    spec.data = DataKind::kDatagen;
    spec.defects = true;
    spec.setup_ticks = kHistoryPoints + 8;
    spec.timed_ticks = 8 * kPointsPerDay;
    spec.reps = 3;
    spec.reference_series = 144;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return spec;
}

std::vector<std::string> workload_names() {
  return {"fullbank_serve", "fleet_wire", "dirty_retrain"};
}

std::size_t stagger_of(const WorkloadSpec& spec, std::size_t i) {
  return (i / spec.sources) % spec.frame_points;
}

std::size_t retrain_slot(const WorkloadSpec& spec, std::size_t stagger,
                         std::size_t phase) {
  // Due at point count interval + phase, i.e. point index j below; the
  // series ships j on the first tick >= j congruent to its stagger. The
  // interval is a whole number of frames, so the slot repeats.
  const std::size_t p = spec.frame_points;
  const std::size_t j = spec.retrain_interval + phase - 1;
  const std::size_t tick = j + (stagger + p - j % p) % p;
  return tick % spec.retrain_interval;
}

std::vector<std::string> balanced_series_ids(const WorkloadSpec& spec) {
  const core::RetrainScheduler scheduler(fleet_options(spec).scheduler_seed,
                                         spec.retrain_interval);
  const std::size_t p = spec.frame_points;
  const std::size_t slots = spec.retrain_interval / p;  // per stagger class
  std::vector<std::size_t> class_size(p, 0);
  for (std::size_t i = 0; i < spec.series; ++i) ++class_size[stagger_of(spec, i)];
  std::vector<std::size_t> rank(p, 0);
  std::vector<std::string> ids;
  ids.reserve(spec.series);
  for (std::size_t i = 0; i < spec.series; ++i) {
    const std::size_t s = stagger_of(spec, i);
    const std::size_t r = rank[s]++;
    const std::size_t m =
        class_size[s] <= slots ? r * slots / class_size[s] : r % slots;
    const std::size_t target = s + m * p;
    // Try suffixed ids until the scheduler's hash lands on the target
    // slot (one in `slots` does).
    char id[48];
    for (std::size_t attempt = 0;; ++attempt) {
      if (attempt > 1000 * slots) {
        throw std::runtime_error("no series id for retrain slot " +
                                 std::to_string(target));
      }
      std::snprintf(id, sizeof(id), "s%04zu.%zu", i, attempt);
      if (retrain_slot(spec, s, scheduler.phase(id)) == target) break;
    }
    ids.emplace_back(id);
  }
  return ids;
}

std::vector<detectors::DetectorPtr> lite_bank(
    const detectors::SeriesContext& ctx) {
  const auto registry = detectors::DetectorRegistry::with_standard_families();
  std::vector<detectors::DetectorPtr> out;
  for (const char* family : {"diff", "simple_ma", "ewma"}) {
    for (auto& config : registry.instantiate_family(family, ctx)) {
      if (config->warmup_points() > ctx.points_per_day) continue;
      out.push_back(std::move(config));
    }
  }
  return out;
}

core::FleetOptions fleet_options(const WorkloadSpec& spec) {
  core::FleetOptions options;
  options.ctx = detectors::SeriesContext{kPointsPerDay, kPointsPerWeek};
  options.retrain_interval = spec.retrain_interval;
  options.history_capacity = kHistoryPoints;
  options.quarantine_after = 3;
  options.forest.num_trees = 16;
  options.forest.seed = 42;
  if (spec.bank == Bank::kLite) options.detector_factory = lite_bank;
  return options;
}

WireGenerator::WireGenerator(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  const std::size_t n = spec.series;
  const std::size_t length = spec.setup_ticks + spec.timed_ticks;
  ids_ = balanced_series_ids(spec);
  salts_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    salts_.push_back(util::fault_key(seed, util::stable_id_hash(ids_[i])));
  }
  if (spec.data == DataKind::kDatagen) {
    values_.resize(n);
    labels_.resize(n);
    truth_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t kpi_seed = util::fault_key(seed, i) % 1'000'000 + 1;
      datagen::KpiPreset preset =
          i % 2 == 0 ? datagen::pv_preset(datagen::Scale::kSmall, kpi_seed)
                     : datagen::sr_preset(datagen::Scale::kSmall, kpi_seed);
      const datagen::GeneratedKpi kpi =
          datagen::generate_kpi(preset.model, preset.injection);
      if (kpi.series.size() < length) {
        throw std::runtime_error("datagen series shorter than the workload");
      }
      const auto all = kpi.series.values();
      values_[i].assign(all.begin(),
                        all.begin() + static_cast<std::ptrdiff_t>(length));
      opprentice::labeling::OperatorModel op;
      op.seed = kpi_seed;
      labels_[i] = opprentice::labeling::simulate_labeling(
                       kpi.ground_truth, length, op)
                       .to_point_labels(length);
      truth_[i] = kpi.ground_truth.to_point_labels(length);
    }
  }
  reset();
}

void WireGenerator::reset() {
  next_seq_.assign(spec_.sources, 0);
  next_tick_ = 0;
  injected_ = DefectCounts{};
  per_series_.assign(spec_.series, DefectCounts{});
}

std::string WireGenerator::source_id(std::size_t source) const {
  return "agent-" + std::to_string(source);
}

std::vector<std::uint8_t> WireGenerator::hello(std::size_t source) const {
  return net::encode_frame(
      net::make_hello(0, net::HelloPayload{source_id(source), 0}));
}

double WireGenerator::clean_value(std::size_t i, std::size_t j) const {
  if (spec_.data == DataKind::kDatagen) return values_[i][j];
  return core::synthetic_fleet_value(salts_[i], j, kPointsPerDay) +
         (j % kSpikeEvery == 0 ? kSpike : 0.0);
}

std::uint8_t WireGenerator::label(std::size_t i, std::size_t j) const {
  if (spec_.data == DataKind::kDatagen) return labels_[i][j];
  return j % kSpikeEvery == 0 ? 1 : 0;
}

std::uint8_t WireGenerator::truth(std::size_t i, std::size_t j) const {
  if (spec_.data == DataKind::kDatagen) return truth_[i][j];
  return j % kSpikeEvery == 0 ? 1 : 0;
}

std::size_t WireGenerator::label_offset(std::size_t i) const {
  // Spread over the day within each source, so a source's LABEL frames
  // never bunch up on one tick.
  return ((i / spec_.sources) * 53 + 17) % kLabelEvery;
}

std::size_t WireGenerator::shipped(std::size_t i, std::int64_t tick) const {
  const auto offset = static_cast<std::int64_t>(stagger_of(spec_, i));
  if (tick < offset) return 0;
  const auto p = static_cast<std::int64_t>(spec_.frame_points);
  return static_cast<std::size_t>(offset + 1 + ((tick - offset) / p) * p);
}

PointDefect WireGenerator::defect(std::size_t i, std::size_t k,
                                  std::size_t* at) const {
  if (!spec_.defects) return PointDefect::kNone;
  const std::uint64_t h =
      util::fault_key(util::fault_key(seed_ ^ kDefectSalt, i), k);
  // Interior positions only, so every dropped or NaN point has finite
  // neighbours in its own frame and repair restores the point count.
  *at = 2 + static_cast<std::size_t>((h >> 3) % 4);
  switch (h % 8) {
    case 0:
      return PointDefect::kDrop;
    case 1:
      return PointDefect::kDuplicate;
    case 2:
      return PointDefect::kSwap;
    case 3:
      return PointDefect::kNan;
    default:
      return PointDefect::kNone;
  }
}

double WireGenerator::expected_value(std::size_t i, std::size_t j) const {
  if (spec_.defects) {
    const std::size_t offset = stagger_of(spec_, i);
    const std::size_t p = spec_.frame_points;
    if (j > offset) {
      const std::size_t k = 1 + (j - offset - 1) / p;
      const std::size_t begin = offset + 1 + (k - 1) * p;
      std::size_t at = 0;
      const PointDefect d = defect(i, k, &at);
      if ((d == PointDefect::kDrop || d == PointDefect::kNan) &&
          j == begin + at) {
        // repair_series' fill_interpolate on a one-point hole.
        const double lo = clean_value(i, j - 1);
        const double hi = clean_value(i, j + 1);
        return lo + (hi - lo) * 0.5;
      }
    }
  }
  return clean_value(i, j);
}

void WireGenerator::encode_data(std::size_t i, std::size_t begin,
                                std::size_t end, WireFrame& frame) {
  net::DataPayload payload;
  payload.series_id = ids_[i];
  payload.interval_seconds = kIntervalSeconds;
  payload.points.reserve(end - begin + 1);
  for (std::size_t j = begin; j < end; ++j) {
    payload.points.push_back(
        {kEpoch + static_cast<std::int64_t>(j) * kIntervalSeconds,
         clean_value(i, j)});
  }
  // Only full frames carry defects (the first frame of a staggered
  // series is shorter).
  if (end - begin == spec_.frame_points && begin > 0) {
    const std::size_t k = 1 + (begin - stagger_of(spec_, i) - 1) / spec_.frame_points;
    std::size_t at = 0;
    auto& points = payload.points;
    switch (defect(i, k, &at)) {
      case PointDefect::kDrop:
        points.erase(points.begin() + static_cast<std::ptrdiff_t>(at));
        ++injected_.dropped;
        ++per_series_[i].dropped;
        break;
      case PointDefect::kDuplicate:
        points.insert(points.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                      points[at]);
        ++injected_.duplicated;
        ++per_series_[i].duplicated;
        break;
      case PointDefect::kSwap:
        std::swap(points[at], points[at + 1]);
        ++injected_.swapped;
        ++per_series_[i].swapped;
        break;
      case PointDefect::kNan:
        points[at].value = std::numeric_limits<double>::quiet_NaN();
        ++injected_.nan;
        ++per_series_[i].nan;
        break;
      case PointDefect::kNone:
        break;
    }
  }
  frame.points = end - begin;
  frame.raw = payload.points;
  frame.message = net::make_data(0, payload);
}

void WireGenerator::ops_for_tick(std::size_t series, std::size_t tick,
                                 std::vector<SeriesOp>& out) const {
  out.clear();
  const auto t = static_cast<std::int64_t>(tick);
  const std::size_t now = shipped(series, t);
  const std::size_t before = shipped(series, t - 1);
  if (now > before) out.push_back({false, before, now});
  if (tick % kLabelEvery == label_offset(series)) {
    const std::size_t from =
        shipped(series, t - static_cast<std::int64_t>(kLabelEvery));
    if (now > from) out.push_back({true, from, now});
  }
}

void WireGenerator::frames_for_tick(std::size_t tick,
                                    std::vector<WireFrame>& out) {
  if (tick != next_tick_) {
    throw std::logic_error("frames_for_tick: ticks must come in order");
  }
  ++next_tick_;
  // Per-source queues first (DATA before LABEL for every series), then a
  // round-robin interleave: each agent keeps one frame outstanding.
  std::vector<std::vector<WireFrame>> per_source(spec_.sources);
  std::vector<SeriesOp> ops;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    ops_for_tick(i, tick, ops);
    for (const SeriesOp& op : ops) {
      WireFrame frame;
      frame.source = static_cast<std::uint32_t>(i % spec_.sources);
      frame.series = static_cast<std::uint32_t>(i);
      frame.label = op.label;
      if (op.label) {
        net::LabelPayload payload;
        payload.series_id = ids_[i];
        payload.begin = op.begin;
        payload.labels.reserve(op.end - op.begin);
        for (std::size_t j = op.begin; j < op.end; ++j) {
          payload.labels.push_back(label(i, j));
        }
        frame.message = net::make_label(0, payload);
      } else {
        encode_data(i, op.begin, op.end, frame);
      }
      per_source[frame.source].push_back(std::move(frame));
    }
  }
  out.clear();
  for (std::size_t s = 0; s < spec_.sources; ++s) {
    auto& frames = per_source[s];
    for (auto& frame : frames) frame.seq = ++next_seq_[s];
    // Seeded out-of-order sequence numbers: the first two frames of this
    // source's tick swap numbers (arrival order is unchanged).
    if (spec_.defects && frames.size() >= 2 &&
        util::fault_key(util::fault_key(seed_ ^ kSeqSalt, s), tick) % 4 == 0) {
      std::swap(frames[0].seq, frames[1].seq);
      ++injected_.seq_swaps;
    }
    for (auto& frame : frames) {
      frame.message.seq = frame.seq;
      frame.bytes = net::encode_frame(frame.message);
      frame.message.payload.clear();
    }
  }
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    for (auto& frames : per_source) {
      if (round < frames.size()) {
        out.push_back(std::move(frames[round]));
        any = true;
      }
    }
    if (!any) break;
  }
}

std::uint64_t traffic_digest(const WorkloadSpec& spec, std::uint64_t seed,
                             std::size_t ticks) {
  WireGenerator gen(spec, seed);
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::vector<WireFrame> frames;
  for (std::size_t t = 0; t < ticks; ++t) {
    gen.frames_for_tick(t, frames);
    for (const WireFrame& frame : frames) {
      for (const std::uint8_t byte : frame.bytes) {
        h = (h ^ byte) * 0x100000001b3ull;
      }
    }
  }
  return h;
}

}  // namespace perfbench
