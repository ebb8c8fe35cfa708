// Workloads of the served-path benchmark and their seeded wire traffic.
//
// A workload fixes the engine configuration (detector bank, retrain
// interval) and the traffic shape (series, sources, points per DATA
// frame, how many ticks are set-up and how many are timed). The
// WireGenerator turns (workload, seed) into the exact byte frames each
// lockstep agent sends on each tick, plus the values a correct engine
// must end up seeing, so the benchmark can check the served engine
// against a directly fed reference.
//
// Traffic model: tick t delivers point t of every series. Series i
// belongs to source (i % sources) and ships its points in DATA frames of
// `frame_points` points, staggered by (i / sources) % frame_points so
// every source sends on every tick. Every 144 ticks (one day) each
// series also sends a LABEL frame covering the points it shipped since
// its previous LABEL frame, staggered by series.
//
// Retrain schedule: the engine derives each series' retrain phase from
// a hash of its id, which would leave a random number of retrains in
// each tick and put percentile ranks on the boundaries between those
// counts. The series ids are therefore chosen (independently of the
// seed) so that retrain ticks spread evenly over the interval.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fleet_engine.hpp"
#include "net/framing.hpp"
#include "timeseries/repair.hpp"

namespace perfbench {

inline constexpr std::size_t kPointsPerDay = 144;   // 10-minute calendar
inline constexpr std::size_t kPointsPerWeek = 1008;
inline constexpr std::size_t kHistoryPoints = 4 * kPointsPerDay;
inline constexpr std::int64_t kIntervalSeconds = 600;
inline constexpr std::int64_t kEpoch = 1'600'041'600;  // a UTC midnight
inline constexpr std::size_t kLabelEvery = kPointsPerDay;

enum class Bank { kFull, kLite };
enum class DataKind { kDatagen, kSyntheticSpiked };

struct WorkloadSpec {
  std::string name;
  std::size_t series = 0;
  std::size_t sources = 4;
  std::size_t frame_points = 1;
  std::size_t retrain_interval = kPointsPerWeek;
  Bank bank = Bank::kFull;
  DataKind data = DataKind::kDatagen;
  bool defects = false;          // seeded wire defects (dirty_retrain)
  std::size_t setup_ticks = 0;   // warm-up + first training, untimed
  std::size_t timed_ticks = 0;   // the measured replay
  std::size_t reps = 1;          // fresh set-up + replay repetitions
  std::size_t reference_series = 0;  // sampled for the correctness check
};

// The three benchmark workloads; throws std::invalid_argument otherwise.
WorkloadSpec workload_spec(const std::string& name);
std::vector<std::string> workload_names();

// Engine options every workload shares with `opprentice_cli serve`
// (16 trees, 4-day history), on the 10-minute calendar.
opprentice::core::FleetOptions fleet_options(const WorkloadSpec& spec);

// The lite bank built here from the registry (diff / simple_ma / ewma,
// warm-up of at most one day), independent of the engine's own preset.
std::vector<opprentice::detectors::DetectorPtr> lite_bank(
    const opprentice::detectors::SeriesContext& ctx);

// The DATA-frame stagger of series i: it ships on ticks congruent to
// this modulo frame_points.
std::size_t stagger_of(const WorkloadSpec& spec, std::size_t i);

// The tick of the retrain interval (tick mod interval) on which a series
// with this stagger and retrain phase retrains: the tick whose DATA
// frame delivers the point that makes it due.
std::size_t retrain_slot(const WorkloadSpec& spec, std::size_t stagger,
                         std::size_t phase);

// Series ids whose retrain slots spread evenly: the series of each
// stagger class take that class's slots round-robin, or evenly spaced
// when there are fewer series than slots. The same for every seed.
std::vector<std::string> balanced_series_ids(const WorkloadSpec& spec);

// Point defects injected into one DATA frame (dirty_retrain).
enum class PointDefect : std::uint8_t { kNone, kDrop, kDuplicate, kSwap, kNan };

struct DefectCounts {
  std::size_t dropped = 0;     // repair reports each as a gap
  std::size_t duplicated = 0;  // repair reports each as a duplicate
  std::size_t swapped = 0;     // repair reports each as out_of_order
  std::size_t nan = 0;         // repair reports each as a bad value
  std::size_t seq_swaps = 0;   // tracker reports each as reordered

  std::size_t point_defects() const {
    return dropped + duplicated + swapped + nan;
  }
  bool operator==(const DefectCounts&) const = default;
};

struct WireFrame {
  std::uint32_t source = 0;
  std::uint32_t series = 0;
  bool label = false;
  std::uint32_t seq = 0;
  std::size_t points = 0;  // logical points after repair (DATA only)
  std::vector<opprentice::ts::RawPoint> raw;  // DATA points as sent
  opprentice::net::Frame message;  // before sequencing and encoding
  std::vector<std::uint8_t> bytes;
};

// One DATA or LABEL batch of one series, as the engine should apply it.
struct SeriesOp {
  bool label = false;
  std::size_t begin = 0;  // global point index
  std::size_t end = 0;
};

class WireGenerator {
 public:
  WireGenerator(const WorkloadSpec& spec, std::uint64_t seed);

  const std::string& series_id(std::size_t i) const { return ids_[i]; }
  std::string source_id(std::size_t source) const;

  // Restarts the traffic at tick 0 (fresh sequence numbers and defect
  // tallies) for another set-up + replay repetition.
  void reset();

  // HELLO bytes of one source (sequence 0, fresh session).
  std::vector<std::uint8_t> hello(std::size_t source) const;

  // Frames sent on tick t, round-robin across sources. Ticks must be
  // generated in order from 0 (sequence numbers are per source).
  void frames_for_tick(std::size_t tick, std::vector<WireFrame>& out);

  // The engine-side batches of one series on tick t (no bytes): what a
  // reference engine is fed directly.
  void ops_for_tick(std::size_t series, std::size_t tick,
                    std::vector<SeriesOp>& out) const;

  // The value the engine must see at point j of series i (after repair).
  double expected_value(std::size_t i, std::size_t j) const;
  std::uint8_t label(std::size_t i, std::size_t j) const;
  std::uint8_t truth(std::size_t i, std::size_t j) const;

  // Defect injected into DATA frame k of series i, and its position.
  PointDefect defect(std::size_t i, std::size_t k, std::size_t* at) const;

  // Defects injected into the frames generated so far, in total and per
  // series.
  const DefectCounts& injected() const { return injected_; }
  const DefectCounts& injected(std::size_t series) const {
    return per_series_[series];
  }

 private:
  double clean_value(std::size_t i, std::size_t j) const;
  // Points of series i shipped by the end of tick t (t may be "-1").
  std::size_t shipped(std::size_t i, std::int64_t tick) const;
  std::size_t label_offset(std::size_t i) const;
  void encode_data(std::size_t i, std::size_t begin, std::size_t end,
                   WireFrame& frame);

  WorkloadSpec spec_;
  std::uint64_t seed_;
  std::vector<std::string> ids_;
  std::vector<std::uint64_t> salts_;
  std::vector<std::vector<double>> values_;          // kDatagen only
  std::vector<std::vector<std::uint8_t>> labels_;    // operator labels
  std::vector<std::vector<std::uint8_t>> truth_;     // ground truth
  std::vector<std::uint32_t> next_seq_;
  std::size_t next_tick_ = 0;
  DefectCounts injected_;
  std::vector<DefectCounts> per_series_;
};

// FNV-1a digest over the bytes of the first `ticks` ticks of traffic.
std::uint64_t traffic_digest(const WorkloadSpec& spec, std::uint64_t seed,
                             std::size_t ticks);

}  // namespace perfbench
