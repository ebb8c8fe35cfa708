// In-memory span recording for the traced run of the served-path
// benchmark. Every span is taken from outside the program, around calls
// into public functions: IngestServer::on_bytes and tick, each detector's
// feed (through a timing decorator installed by the engine's detector
// factory hook), and the side calls that re-time repair, scoring,
// training and cThld picking. Spans stay in memory and are written once,
// when the run ends.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "detectors/detector.hpp"
#include "detectors/registry.hpp"

namespace perfbench {

// The 14 standard detector families, in registry order.
const std::vector<std::string>& family_names();

struct Span {
  std::uint32_t name = 0;    // index into SpanRecorder::names()
  std::int64_t parent = -1;  // index of the causing span, -1 for roots
  std::uint64_t trace = 0;   // shared by the spans of one frame or tick
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 1;   // >1 for aggregated detector feeds
};

class SpanRecorder {
 public:
  std::uint32_t intern(const std::string& name);
  std::size_t add(const Span& span);
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  // One JSON object per line: name, parent, trace, start/duration in µs
  // (relative to the first span), count.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// Per-family feed time accumulated by the timing decorators. The run is
// single-threaded (pool pinned to one thread), so plain counters do.
struct FeedClock {
  std::vector<std::int64_t> family_ns;  // since the last drain
  std::vector<std::uint64_t> family_feeds;

  void clear();
  // Series whose feature rows are captured (the sampled subset), and the
  // rows captured so far for each.
  std::vector<int> capture_slot;  // per series index, -1 = not captured
  std::vector<std::vector<std::vector<double>>> rows;  // [slot][point][f]
};

FeedClock& feed_clock();

// Builds a series' bank wrapped in timing decorators. `series` is the
// index of the series being registered (the factory runs inside
// FleetEngine::add_series, which the benchmark calls in index order).
std::vector<opprentice::detectors::DetectorPtr> timed_bank(
    std::vector<opprentice::detectors::DetectorPtr> bank, std::size_t series);

}  // namespace perfbench
