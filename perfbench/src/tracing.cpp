#include "tracing.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {
namespace detectors = opprentice::detectors;

namespace {

std::size_t family_index(const std::string& configuration) {
  const std::string family =
      configuration.substr(0, configuration.find('('));
  const auto& names = family_names();
  const auto it = std::find(names.begin(), names.end(), family);
  if (it == names.end()) {
    throw std::runtime_error("no detector family for '" + configuration + "'");
  }
  return static_cast<std::size_t>(it - names.begin());
}

// Forwards every call to the wrapped configuration and times feed(). For
// captured series it also rebuilds the feature row exactly as
// StreamingExtractor does (0 inside the warm-up, non-finite scrubbed to
// the neutral 0), so the side calls can re-score and re-train on it.
class TimedDetector final : public detectors::Detector {
 public:
  TimedDetector(detectors::DetectorPtr inner, std::size_t family, int slot,
                std::size_t column, std::size_t columns)
      : inner_(std::move(inner)),
        family_(family),
        slot_(slot),
        column_(column),
        columns_(columns) {}

  std::string name() const override { return inner_->name(); }
  std::size_t warmup_points() const override {
    return inner_->warmup_points();
  }
  void reset() override {
    inner_->reset();
    fed_ = 0;
  }

  double feed(double value) override {
    const std::int64_t start = now_ns();
    const double severity = inner_->feed(value);
    const std::int64_t elapsed = now_ns() - start;
    FeedClock& clock = feed_clock();
    clock.family_ns[family_] += elapsed;
    ++clock.family_feeds[family_];
    if (slot_ >= 0) {
      auto& rows = clock.rows[static_cast<std::size_t>(slot_)];
      if (column_ == 0) rows.emplace_back(columns_, 0.0);
      rows.back()[column_] =
          fed_ < inner_->warmup_points() || !std::isfinite(severity)
              ? 0.0
              : severity;
    }
    ++fed_;
    return severity;
  }

 private:
  detectors::DetectorPtr inner_;
  std::size_t family_;
  int slot_;
  std::size_t column_;
  std::size_t columns_;
  std::size_t fed_ = 0;
};

}  // namespace

const std::vector<std::string>& family_names() {
  static const std::vector<std::string> names =
      detectors::DetectorRegistry::with_standard_families().family_names();
  return names;
}

std::uint32_t SpanRecorder::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<std::uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t SpanRecorder::add(const Span& span) {
  spans_.push_back(span);
  return spans_.size() - 1;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << names_[s.name] << "\", \"parent\": " << s.parent
        << ", \"trace\": " << s.trace << ", \"start_us\": "
        << static_cast<double>(s.start_ns - origin) / 1e3
        << ", \"dur_us\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ", \"count\": " << s.count << "}\n";
  }
  return static_cast<bool>(out);
}

void FeedClock::clear() {
  const std::size_t n = family_names().size();
  family_ns.assign(n, 0);
  family_feeds.assign(n, 0);
  capture_slot.clear();
  rows.clear();
}

FeedClock& feed_clock() {
  static FeedClock clock;
  return clock;
}

std::vector<detectors::DetectorPtr> timed_bank(
    std::vector<detectors::DetectorPtr> bank, std::size_t series) {
  FeedClock& clock = feed_clock();
  const int slot =
      series < clock.capture_slot.size() ? clock.capture_slot[series] : -1;
  std::vector<detectors::DetectorPtr> out;
  out.reserve(bank.size());
  for (std::size_t f = 0; f < bank.size(); ++f) {
    const std::size_t family = family_index(bank[f]->name());
    out.push_back(std::make_unique<TimedDetector>(std::move(bank[f]), family,
                                                  slot, f, bank.size()));
  }
  return out;
}

}  // namespace perfbench
