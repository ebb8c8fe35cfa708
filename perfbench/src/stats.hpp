// Sample statistics, host provenance and the calibration kernel shared by
// the served-path benchmark and its self-test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile of `samples` (q in (0, 1]); sorts a copy.
// Returns 0 for an empty sample.
double percentile(std::vector<double> samples, double q);

// Samples strictly above the nearest-rank q-percentile's rank, i.e.
// n - ceil(q * n): the count the report prints beside each percentile.
std::size_t samples_beyond(std::size_t n, double q);

double median(std::vector<double> samples);

// True when `share`, the fraction of verdict samples above a mode
// boundary, lies within half the tail rank (1 - q) of that rank:
// percentile q would then straddle the boundary and jump between the
// modes from run to run.
bool rank_near_mode_boundary(double share, double q);

// The mode boundaries of a replay whose tick k retrained
// retrains_per_tick[k] series and holds samples_per_tick[k] verdict
// samples: element c is the share of samples in ticks that retrained
// more than c series, for c = 0 .. (most retrains in a tick) - 1.
std::vector<double> retrain_mode_shares(
    const std::vector<std::size_t>& retrains_per_tick,
    const std::vector<std::size_t>& samples_per_tick);

// Resident set size in bytes from /proc/self/statm (0 if unreadable).
std::size_t resident_bytes();

// Fixed, allocation-free integer kernel; returns its wall time in ms.
// Run before each workload so drift between sets of runs shows up.
double calibration_ms();

struct Provenance {
  std::string cpu_model;
  long nproc = 0;
  std::size_t pool_threads = 0;
  double load_start = 0.0;
  double load_end = 0.0;
  double calib_ms = 0.0;
};

std::string cpu_model();
double load_average_1m();

// Monotonic clock in nanoseconds.
std::int64_t now_ns();

}  // namespace perfbench
