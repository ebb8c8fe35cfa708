#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <unistd.h>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool rank_near_mode_boundary(double share, double q) {
  const double tail = 1.0 - q;
  return std::abs(share - tail) < tail / 2.0;
}

std::vector<double> retrain_mode_shares(
    const std::vector<std::size_t>& retrains_per_tick,
    const std::vector<std::size_t>& samples_per_tick) {
  std::vector<std::size_t> by_count;  // samples per retrain count
  std::size_t total = 0;
  for (std::size_t k = 0; k < retrains_per_tick.size(); ++k) {
    const std::size_t c = retrains_per_tick[k];
    if (by_count.size() <= c) by_count.resize(c + 1, 0);
    by_count[c] += samples_per_tick[k];
    total += samples_per_tick[k];
  }
  std::vector<double> shares;
  if (total == 0) return shares;
  std::size_t above = total;
  for (std::size_t c = 0; c + 1 < by_count.size(); ++c) {
    above -= by_count[c];
    shares.push_back(static_cast<double>(above) / static_cast<double>(total));
  }
  return shares;
}

std::size_t resident_bytes() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return 0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(statm, "%lu %lu", &total, &resident);
  std::fclose(statm);
  if (got != 2) return 0;
  return static_cast<std::size_t>(resident) *
         static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

double calibration_ms() {
  // A dependent multiply/xorshift chain: no memory traffic, no
  // allocation, the same instruction stream on every run.
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < 10'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x = x * 0xBF58476D1CE4E5B9ull + i;
  }
  const std::int64_t end = now_ns();
  volatile std::uint64_t sink = x;
  (void)sink;
  return static_cast<double>(end - start) / 1e6;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t from = colon + 1;
        while (from < line.size() && line[from] == ' ') ++from;
        return line.substr(from);
      }
    }
  }
  return "unknown";
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double load = 0.0;
  in >> load;
  return load;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
