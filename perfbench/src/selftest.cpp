// Tests of the benchmark's own helpers: seeded traffic is byte-identical
// per seed, the chosen series ids spread retrains evenly, the
// wire-defect generator's tallies equal what repair_series and the
// sequence tracker report, and the percentile helpers count samples the
// way the report states.
//
//   python3 perfbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/retrain_scheduler.hpp"
#include "net/framing.hpp"
#include "net/source_state.hpp"
#include "stats.hpp"
#include "timeseries/repair.hpp"
#include "workload.hpp"

using namespace perfbench;
namespace net = opprentice::net;
namespace ts = opprentice::ts;

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++failures;                                                     \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);   \
    }                                                                 \
  } while (0)

void frames_are_byte_identical_per_seed() {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    const std::size_t ticks = 300;
    EXPECT(traffic_digest(spec, 7, ticks) == traffic_digest(spec, 7, ticks));
    EXPECT(traffic_digest(spec, 7, ticks) != traffic_digest(spec, 8, ticks));

    // Two generators, and one generator after reset(), emit the same
    // frames byte for byte.
    WireGenerator a(spec, 11);
    WireGenerator b(spec, 11);
    std::vector<WireFrame> fa, fb;
    for (std::size_t t = 0; t < 40; ++t) {
      a.frames_for_tick(t, fa);
      b.frames_for_tick(t, fb);
      EXPECT(fa.size() == fb.size());
      for (std::size_t k = 0; k < fa.size() && k < fb.size(); ++k) {
        EXPECT(fa[k].bytes == fb[k].bytes);
      }
    }
    a.reset();
    WireGenerator c(spec, 11);
    for (std::size_t t = 0; t < 40; ++t) {
      a.frames_for_tick(t, fa);
      c.frames_for_tick(t, fb);
      EXPECT(fa.size() == fb.size());
      for (std::size_t k = 0; k < fa.size() && k < fb.size(); ++k) {
        EXPECT(fa[k].bytes == fb[k].bytes);
      }
    }
  }
}

void every_source_stays_under_the_queue_capacity() {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    WireGenerator gen(spec, 3);
    std::vector<WireFrame> frames;
    std::size_t worst = 0;
    for (std::size_t t = 0; t < 2 * kPointsPerDay; ++t) {
      gen.frames_for_tick(t, frames);
      std::vector<std::size_t> per_source(spec.sources, 0);
      for (const WireFrame& f : frames) ++per_source[f.source];
      for (const std::size_t n : per_source) {
        EXPECT(n > 0);  // every source speaks every tick (liveness)
        worst = std::max(worst, n);
      }
    }
    EXPECT(worst <= 64);  // ServerOptions::queue_capacity
  }
}

void retrain_slots_spread_evenly() {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    const opprentice::core::RetrainScheduler scheduler(
        fleet_options(spec).scheduler_seed, spec.retrain_interval);
    const std::vector<std::string> ids = balanced_series_ids(spec);
    EXPECT(ids.size() == spec.series);
    std::vector<std::size_t> per_slot(spec.retrain_interval, 0);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::size_t slot =
          retrain_slot(spec, stagger_of(spec, i), scheduler.phase(ids[i]));
      EXPECT(slot % spec.frame_points == stagger_of(spec, i));
      ++per_slot[slot];
    }
    // Within each stagger class, slot loads differ by at most one.
    for (std::size_t s = 0; s < spec.frame_points; ++s) {
      std::size_t lo = spec.series;
      std::size_t hi = 0;
      for (std::size_t slot = s; slot < spec.retrain_interval; slot += spec.frame_points) {
        lo = std::min(lo, per_slot[slot]);
        hi = std::max(hi, per_slot[slot]);
      }
      EXPECT(hi - lo <= 1);
    }
    // Seed-independent: the generator uses the same ids for any seed.
    EXPECT(WireGenerator(spec, 1).series_id(0) == ids[0]);
    EXPECT(WireGenerator(spec, 2).series_id(spec.series - 1) == ids.back());
  }
  // The slot is the tick that delivers the due point: with 8-point
  // frames staggered by 3, point index 150 (count 151 = 144 + 7) ships
  // on tick 155, i.e. slot 11 of the day.
  WorkloadSpec spec = workload_spec("dirty_retrain");
  EXPECT(retrain_slot(spec, 3, 7) == 11);
  EXPECT(retrain_slot(spec, 0, 0) == 0);   // count 144 = index 143 -> tick 144
  EXPECT(retrain_slot(spec, 7, 0) == 143);  // index 143 ships on tick 143
}

void defect_tallies_match_repair_and_tracker() {
  const WorkloadSpec spec = workload_spec("dirty_retrain");
  for (const std::uint64_t seed : {1u, 2u, 99u}) {
    WireGenerator gen(spec, seed);
    std::vector<WireFrame> frames;
    ts::RepairReport total;
    std::vector<net::SourceTracker> trackers(spec.sources);
    std::vector<std::size_t> next_point(spec.series, 0);
    bool values_ok = true;
    for (std::size_t t = 0; t < 3 * kPointsPerDay; ++t) {
      gen.frames_for_tick(t, frames);
      for (const WireFrame& frame : frames) {
        trackers[frame.source].observe(frame.seq, t);
        if (frame.label) continue;
        // Decode the bytes as the server would, then repair.
        net::FrameParser parser;
        parser.push_bytes(frame.bytes);
        net::Frame decoded;
        EXPECT(parser.next(&decoded));
        net::DataPayload data;
        EXPECT(net::decode_data(decoded, &data));
        const ts::RepairResult repaired = ts::repair_series(
            data.series_id, data.points, data.interval_seconds,
            ts::RepairPolicy::kFillInterpolate);
        total.gaps += repaired.report.gaps;
        total.duplicates += repaired.report.duplicates;
        total.out_of_order += repaired.report.out_of_order;
        total.bad_values += repaired.report.bad_values;
        total.misaligned += repaired.report.misaligned;
        EXPECT(repaired.series.size() == frame.points);
        for (std::size_t k = 0; k < repaired.series.size(); ++k) {
          const std::size_t j = next_point[frame.series] + k;
          if (repaired.series[k] != gen.expected_value(frame.series, j)) {
            values_ok = false;
          }
        }
        next_point[frame.series] += repaired.series.size();
      }
    }
    const DefectCounts& d = gen.injected();
    EXPECT(d.point_defects() > 100);
    EXPECT(d.seq_swaps > 10);
    EXPECT(total.gaps == d.dropped);
    EXPECT(total.duplicates == d.duplicated);
    EXPECT(total.out_of_order == d.swapped);
    EXPECT(total.bad_values == d.nan);
    EXPECT(total.misaligned == 0);
    EXPECT(values_ok);
    std::uint64_t reordered = 0;
    std::uint64_t gaps = 0;
    for (const auto& tracker : trackers) {
      reordered += tracker.counters().reordered;
      gaps += tracker.counters().gap_frames;
    }
    EXPECT(reordered == d.seq_swaps);
    EXPECT(gaps == 0);
  }
  // Clean workloads inject nothing.
  WireGenerator clean(workload_spec("fullbank_serve"), 1);
  std::vector<WireFrame> frames;
  for (std::size_t t = 0; t < 100; ++t) clean.frames_for_tick(t, frames);
  EXPECT(clean.injected() == DefectCounts{});
}

void percentile_sample_counts() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(percentile(v, 0.5) == 50.0);
  EXPECT(percentile(v, 0.99) == 99.0);
  EXPECT(percentile(v, 1.0) == 100.0);
  EXPECT(samples_beyond(100, 0.99) == 1);
  EXPECT(samples_beyond(100, 0.5) == 50);
  EXPECT(samples_beyond(1000, 0.99) == 10);
  EXPECT(samples_beyond(24192, 0.99) == 241);
  EXPECT(samples_beyond(0, 0.99) == 0);
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
  EXPECT(percentile({}, 0.5) == 0.0);
  // Retrain shares near a percentile's tail rank are refused.
  EXPECT(rank_near_mode_boundary(0.012, 0.99));
  EXPECT(!rank_near_mode_boundary(0.024, 0.99));
  EXPECT(!rank_near_mode_boundary(0.003, 0.99));
  EXPECT(rank_near_mode_boundary(0.4, 0.5));
  EXPECT(!rank_near_mode_boundary(0.2, 0.5));
  EXPECT(!rank_near_mode_boundary(0.8, 0.5));
  // Mode boundaries between retrain counts, weighted by samples.
  const std::vector<double> shares =
      retrain_mode_shares({0, 1, 2, 1, 0}, {10, 10, 20, 10, 50});
  EXPECT(shares.size() == 2);
  EXPECT(shares.size() == 2 && shares[0] == 0.4 && shares[1] == 0.2);
  EXPECT(retrain_mode_shares({1, 1, 1}, {5, 5, 5}) == std::vector<double>{1.0});
  EXPECT(retrain_mode_shares({0, 0}, {5, 5}).empty());
}

}  // namespace

int main() {
  frames_are_byte_identical_per_seed();
  every_source_stays_under_the_queue_capacity();
  retrain_slots_spread_evenly();
  defect_tallies_match_repair_and_tracker();
  percentile_sample_counts();
  if (failures == 0) {
    std::printf("perfbench self-test: all checks passed\n");
    return 0;
  }
  std::printf("perfbench self-test: %d check(s) failed\n", failures);
  return 1;
}
