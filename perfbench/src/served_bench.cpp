// Served-path benchmark: DATA frame -> verdict through the real daemon
// core (net::IngestServer over an in-memory transport, feeding
// core::FleetEngine), single-threaded and closed-loop.
//
//   served_bench --workload <name> --seed <n> [--trace 0|1]
//                [--trace-dir <dir>]
//
// Each run replays a fixed, seed-determined frame sequence: an untimed
// set-up (warm-up and first training, through the wire) and a timed
// replay. Lockstep agents, one connection per source, send every frame
// of a tick and wait for its ACK; then the server ticks once and applies
// the queued frames. A frame's verdict latency runs from the start of its
// on_bytes call to the return of the tick that applied it.
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it repeats the workload once untraced and once with spans recorded
// around every call into the program, and reports the per-layer budget.
// Every run checks its outputs against a directly fed reference engine
// and exits non-zero when they disagree. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/fleet_engine.hpp"
#include "eval/pr_curve.hpp"
#include "eval/threshold_pickers.hpp"
#include "ml/serialize.hpp"
#include "net/server.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace core = opprentice::core;
namespace detectors = opprentice::detectors;
namespace eval = opprentice::eval;
namespace ml = opprentice::ml;
namespace net = opprentice::net;
namespace obs = opprentice::obs;
namespace ts = opprentice::ts;
namespace util = opprentice::util;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_dir = ".bench_build/traces";
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  return args;
}

// What the traced run measures beyond the end-to-end numbers.
struct TraceTotals {
  std::int64_t on_bytes_ns = 0;
  std::int64_t tick_ns = 0;
  std::int64_t queue_wait_ns = 0;
  std::int64_t repair_ns = 0;
  std::size_t repair_batches = 0;
  std::size_t repaired_defects = 0;
  std::vector<std::int64_t> family_ns;
  std::uint64_t wire_bytes = 0;
};

struct RepResult {
  double setup_s = 0.0;
  double busy_s = 0.0;  // sum of timed tick spans (first on_bytes .. tick)
  std::size_t timed_points = 0;
  std::size_t timed_data_frames = 0;
  std::size_t frames_sent = 0;  // DATA + LABEL, set-up and timed
  std::size_t non_ack = 0;      // RETRY / ERROR / missing replies
  std::size_t retrains_timed = 0;
  std::size_t retrain_ticks = 0;
  std::size_t retrain_tick_frames = 0;
  // Per timed tick: series retrained, and DATA frames (verdict samples).
  std::vector<std::size_t> retrains_per_tick;
  std::vector<std::size_t> samples_per_tick;
  double rss_kb_per_series = 0.0;
  std::vector<double> latency_ms;  // one per timed DATA frame
  TraceTotals trace;
};

// The daemon core under test plus its in-memory transport.
struct Served {
  std::unique_ptr<core::FleetEngine> engine;
  std::unique_ptr<net::IngestServer> server;
  std::vector<core::SeriesHandle> handles;
  std::vector<net::FrameParser> replies;  // client-side, per connection
};

std::uint64_t conn_id(std::size_t source) { return 100 + source; }

class Runner {
 public:
  Runner(const WorkloadSpec& spec, std::uint64_t seed)
      : spec_(spec), gen_(spec, seed),
        retrains_(obs::counter("opprentice.fleet.retrains")) {
    // Evenly spread, alternating between even and odd indices so that a
    // datagen workload samples PV- and #SR-like series alike.
    const std::size_t n = spec.series;
    const std::size_t stride = n / spec.reference_series;
    for (std::size_t k = 0; k < spec.reference_series; ++k) {
      sampled_.push_back(k * stride + (stride > 1 ? k % 2 : 0));
    }
  }

  WireGenerator& gen() { return gen_; }
  const std::vector<std::size_t>& sampled() const { return sampled_; }
  Served& served() { return served_; }

  RepResult run(bool traced, SpanRecorder* recorder) {
    served_ = Served{};  // tear the previous repetition down first
    gen_.reset();
    RepResult r;
    FeedClock& clock = feed_clock();
    if (traced) {
      clock.clear();
      clock.capture_slot.assign(spec_.series, -1);
      for (std::size_t k = 0; k < sampled_.size(); ++k) {
        clock.capture_slot[sampled_[k]] = static_cast<int>(k);
      }
      clock.rows.assign(sampled_.size(), {});
      r.trace.family_ns.assign(family_names().size(), 0);
    }
    const std::size_t rss0 = resident_bytes();

    const std::int64_t build_start = now_ns();
    core::FleetOptions options = fleet_options(spec_);
    if (traced) {
      // Registration runs the factory once per series, in index order.
      auto base = options.detector_factory;
      auto next = std::make_shared<std::size_t>(0);
      options.detector_factory = [base, next](const detectors::SeriesContext& ctx) {
        auto bank = base ? base(ctx) : detectors::standard_configurations(ctx);
        return timed_bank(std::move(bank), (*next)++);
      };
    }
    served_.engine = std::make_unique<core::FleetEngine>(std::move(options));
    served_.server =
        std::make_unique<net::IngestServer>(*served_.engine, net::ServerOptions{});
    for (std::size_t i = 0; i < spec_.series; ++i) {
      served_.handles.push_back(served_.engine->add_series(gen_.series_id(i)));
    }
    served_.replies.assign(spec_.sources, net::FrameParser());
    std::vector<std::vector<std::uint8_t>> responses(spec_.sources);
    for (std::size_t s = 0; s < spec_.sources; ++s) {
      if (!served_.server->on_connect(conn_id(s)) ||
          !served_.server->on_bytes(conn_id(s), gen_.hello(s), responses[s])) {
        throw std::runtime_error("connection refused");
      }
    }
    std::int64_t setup_ns = now_ns() - build_start;
    for (std::size_t s = 0; s < spec_.sources; ++s) {
      served_.replies[s].push_bytes(responses[s]);
      net::Frame welcome;
      if (!served_.replies[s].next(&welcome) ||
          welcome.type != net::FrameType::kWelcome) {
        throw std::runtime_error("HELLO not welcomed");
      }
    }

    std::vector<WireFrame> frames;
    std::vector<std::int64_t> sent_ns;
    std::vector<std::int64_t> done_ns;
    const std::size_t total = spec_.setup_ticks + spec_.timed_ticks;
    for (std::size_t t = 0; t < total; ++t) {
      const bool timed = t >= spec_.setup_ticks;
      const bool trace_tick = traced && timed;
      gen_.frames_for_tick(t, frames);
      for (auto& buffer : responses) buffer.clear();
      sent_ns.resize(frames.size());
      done_ns.resize(frames.size());
      const std::uint64_t retrains_before = retrains_.value();
      if (traced) {
        std::fill(clock.family_ns.begin(), clock.family_ns.end(), 0);
        std::fill(clock.family_feeds.begin(), clock.family_feeds.end(), 0);
      }

      // ---- measured: every frame of the tick, then the tick ----
      for (std::size_t f = 0; f < frames.size(); ++f) {
        sent_ns[f] = now_ns();
        const WireFrame& frame = frames[f];
        if (!served_.server->on_bytes(conn_id(frame.source), frame.bytes,
                                      responses[frame.source])) {
          throw std::runtime_error("server closed a connection");
        }
        if (trace_tick) done_ns[f] = now_ns();
      }
      const std::int64_t tick_start = trace_tick ? now_ns() : 0;
      served_.server->tick();
      const std::int64_t tick_end = now_ns();
      // ---- end of measured section ----

      const std::int64_t first = frames.empty() ? tick_end : sent_ns[0];
      const std::uint64_t retrained = retrains_.value() - retrains_before;
      r.frames_sent += frames.size();
      r.non_ack += check_replies(frames, responses);
      if (!timed) {
        setup_ns += tick_end - first;
        continue;
      }
      r.busy_s += static_cast<double>(tick_end - first) / 1e9;
      r.retrains_timed += retrained;
      if (retrained > 0) ++r.retrain_ticks;
      std::size_t samples = 0;
      for (std::size_t f = 0; f < frames.size(); ++f) {
        if (frames[f].label) continue;
        ++samples;
        r.timed_points += frames[f].points;
        r.latency_ms.push_back(static_cast<double>(tick_end - sent_ns[f]) / 1e6);
      }
      r.timed_data_frames += samples;
      if (retrained > 0) r.retrain_tick_frames += samples;
      r.retrains_per_tick.push_back(static_cast<std::size_t>(retrained));
      r.samples_per_tick.push_back(samples);
      if (trace_tick) trace_tick_spans(t, frames, sent_ns, done_ns, tick_start,
                                       tick_end, *recorder, r.trace);
    }
    r.setup_s = static_cast<double>(setup_ns) / 1e9;
    const std::size_t rss1 = resident_bytes();
    r.rss_kb_per_series = rss1 > rss0 ? static_cast<double>(rss1 - rss0) /
                                            1024.0 / static_cast<double>(spec_.series)
                                      : 0.0;
    return r;
  }

 private:
  // Every DATA/LABEL frame must be answered by exactly its ACK.
  std::size_t check_replies(const std::vector<WireFrame>& frames,
                            std::vector<std::vector<std::uint8_t>>& responses) {
    std::size_t bad = 0;
    std::vector<std::vector<std::uint32_t>> expected(spec_.sources);
    for (const WireFrame& frame : frames) expected[frame.source].push_back(frame.seq);
    for (std::size_t s = 0; s < spec_.sources; ++s) {
      served_.replies[s].push_bytes(responses[s]);
      std::size_t k = 0;
      net::Frame reply;
      while (served_.replies[s].next(&reply)) {
        net::AckPayload ack;
        if (reply.type != net::FrameType::kAck || !net::decode_ack(reply, &ack) ||
            k >= expected[s].size() || ack.seq != expected[s][k]) {
          ++bad;
        }
        ++k;
      }
      if (k < expected[s].size()) bad += expected[s].size() - k;
    }
    return bad;
  }

  void trace_tick_spans(std::size_t t, const std::vector<WireFrame>& frames,
                        const std::vector<std::int64_t>& sent_ns,
                        const std::vector<std::int64_t>& done_ns,
                        std::int64_t tick_start, std::int64_t tick_end,
                        SpanRecorder& rec, TraceTotals& totals) {
    const std::uint32_t on_bytes_name = rec.intern("net.on_bytes");
    const std::uint32_t repair_name = rec.intern("timeseries.repair_series");
    const std::size_t tick_span =
        rec.add(Span{rec.intern("core.tick"), -1, t, tick_start, tick_end, 1});
    totals.tick_ns += tick_end - tick_start;
    for (std::size_t f = 0; f < frames.size(); ++f) {
      rec.add(Span{on_bytes_name, -1, t, sent_ns[f], done_ns[f], 1});
      totals.on_bytes_ns += done_ns[f] - sent_ns[f];
      totals.queue_wait_ns += tick_start - done_ns[f];
      totals.wire_bytes += frames[f].bytes.size();
    }
    // Detector feeds, aggregated per family inside this tick; laid out
    // back to back from the tick start (their true interleaving is
    // per point).
    FeedClock& clock = feed_clock();
    std::int64_t cursor = tick_start;
    for (std::size_t k = 0; k < clock.family_ns.size(); ++k) {
      const std::int64_t ns = clock.family_ns[k];
      if (clock.family_feeds[k] > 0) {
        rec.add(Span{rec.intern("detectors." + family_names()[k]),
                     static_cast<std::int64_t>(tick_span), t, cursor, cursor + ns,
                     clock.family_feeds[k]});
      }
      cursor += ns;
      totals.family_ns[k] += ns;
    }
    // Side call: repair_series on a copy of each applied DATA batch.
    for (const WireFrame& frame : frames) {
      if (frame.label) continue;
      std::vector<ts::RawPoint> copy = frame.raw;
      const std::int64_t start = now_ns();
      const ts::RepairResult repaired = ts::repair_series(
          gen_.series_id(frame.series), std::move(copy), kIntervalSeconds,
          ts::RepairPolicy::kFillInterpolate);
      const std::int64_t end = now_ns();
      rec.add(Span{repair_name, static_cast<std::int64_t>(tick_span), t, start, end, 1});
      totals.repair_ns += end - start;
      ++totals.repair_batches;
      totals.repaired_defects += repaired.report.total();
    }
  }

  const WorkloadSpec spec_;
  WireGenerator gen_;
  obs::Counter& retrains_;
  std::vector<std::size_t> sampled_;
  Served served_;
};

// ---- correctness: the served engine against a directly fed reference ----

struct CheckResult {
  bool ok = true;
  std::size_t count = 0;  // failed checks; the first few are kept
  std::vector<std::string> failures;
  double aucpr = 0.0;
  std::size_t scored_points = 0;
  std::size_t scored_positives = 0;
  std::size_t missing_point_frames = 0;  // frames whose points never arrived
  ts::RepairReport repairs;

  void fail(const std::string& what) {
    ok = false;
    ++count;
    if (failures.size() < 10) failures.push_back(what);
  }
};

bool same_stats(const core::FleetSeriesStats& a, const core::FleetSeriesStats& b) {
  return a.phase == b.phase && a.points_seen == b.points_seen &&
         a.labeled_until == b.labeled_until && a.retrains == b.retrains &&
         a.train_failures == b.train_failures && a.trained == b.trained &&
         a.quarantined == b.quarantined;
}

CheckResult check_outputs(Runner& runner, const WorkloadSpec& spec) {
  CheckResult out;
  WireGenerator& gen = runner.gen();
  Served& served = runner.served();
  const std::size_t total = spec.setup_ticks + spec.timed_ticks;

  // Every series: every point arrived, and repair saw exactly the
  // injected defects.
  std::vector<SeriesOp> ops;
  for (std::size_t i = 0; i < spec.series; ++i) {
    const core::FleetSeriesStats stats = served.engine->stats(served.handles[i]);
    std::size_t expected_points = 0;
    std::size_t data_frames = 0;
    for (std::size_t t = 0; t < total; ++t) {
      gen.ops_for_tick(i, t, ops);
      for (const SeriesOp& op : ops) {
        if (op.label) continue;
        expected_points = op.end;
        ++data_frames;
      }
    }
    if (stats.points_seen != expected_points) {
      out.missing_point_frames += data_frames;
      out.fail(gen.series_id(i) + ": points_seen " + std::to_string(stats.points_seen) +
               " != " + std::to_string(expected_points));
    }
    const DefectCounts& d = gen.injected(i);
    const ts::RepairReport& rep = stats.repairs;
    if (rep.gaps != d.dropped || rep.duplicates != d.duplicated ||
        rep.out_of_order != d.swapped || rep.bad_values != d.nan ||
        rep.misaligned != 0) {
      out.fail(gen.series_id(i) + ": repairs {" + rep.summary() +
               "} != injected defects");
    }
    out.repairs.gaps += rep.gaps;
    out.repairs.duplicates += rep.duplicates;
    out.repairs.out_of_order += rep.out_of_order;
    out.repairs.bad_values += rep.bad_values;
    out.repairs.misaligned += rep.misaligned;
  }

  // Sequence defects: each swap is one reordered frame and no lost frame.
  std::uint64_t reordered = 0;
  std::uint64_t gaps = 0;
  std::uint64_t dups = 0;
  std::uint64_t stale = 0;
  for (const auto& snap : served.server->snapshot()) {
    reordered += snap.counters.reordered;
    gaps += snap.counters.gap_frames;
    dups += snap.counters.duplicates;
    stale += snap.counters.stale;
    if (snap.state != net::SourceState::kLive) {
      out.fail("source " + snap.id + " is " + net::to_string(snap.state));
    }
  }
  if (reordered != gen.injected().seq_swaps || gaps != 0 || dups != 0 || stale != 0) {
    out.fail("tracker reordered=" + std::to_string(reordered) +
             " gaps=" + std::to_string(gaps) + " duplicates=" + std::to_string(dups) +
             " stale=" + std::to_string(stale) + " vs injected seq swaps " +
             std::to_string(gen.injected().seq_swaps));
  }

  // Sampled series: a reference engine fed the expected points directly
  // must end with the same forest and bookkeeping.
  core::FleetEngine reference(fleet_options(spec));
  std::vector<double> scores;
  std::vector<std::uint8_t> truth;
  for (const std::size_t i : runner.sampled()) {
    const core::SeriesHandle handle = reference.add_series(gen.series_id(i));
    for (std::size_t t = 0; t < total; ++t) {
      gen.ops_for_tick(i, t, ops);
      for (const SeriesOp& op : ops) {
        if (op.label) {
          std::vector<std::uint8_t> labels;
          for (std::size_t j = op.begin; j < op.end; ++j) labels.push_back(gen.label(i, j));
          reference.ingest_labels(handle, labels, op.begin);
          continue;
        }
        for (std::size_t j = op.begin; j < op.end; ++j) {
          const core::FleetDetection d = reference.feed(handle, gen.expected_value(i, j));
          if (j >= spec.setup_ticks && d.classified) {
            scores.push_back(d.score);
            truth.push_back(gen.truth(i, j));
          }
        }
      }
    }
    const core::SeriesHandle served_handle = served.handles[i];
    if (!same_stats(reference.stats(handle), served.engine->stats(served_handle))) {
      out.fail(gen.series_id(i) + ": stats differ from the reference engine");
    }
    if (reference.forest_fingerprint(handle) !=
        served.engine->forest_fingerprint(served_handle)) {
      out.fail(gen.series_id(i) + ": forest differs from the reference engine");
    }
  }
  out.scored_points = scores.size();
  out.scored_positives = static_cast<std::size_t>(std::count(truth.begin(), truth.end(), 1));
  if (out.scored_points == 0 || out.scored_positives == 0) {
    out.fail("no classified timed points with positives to score");
  } else {
    out.aucpr = eval::aucpr_of_scores(scores, truth);
  }
  return out;
}

// ---- traced side calls: score, train and cThld pick, re-timed ----

struct SideCalls {
  double score_us_per_point = 0.0;
  double train_ms_per_round = 0.0;
  double cthld_pick_ms_per_round = 0.0;
  std::size_t rounds = 0;            // timed retrain rounds re-timed
  std::size_t forests_checked = 0;   // sampled series with a forest
  std::size_t forests_matching = 0;  // ... whose re-trained forest is the served one
  std::size_t untrained = 0;         // sampled series never trained
  std::vector<std::string> skipped;  // sampled series that could not be re-timed
};

SideCalls time_side_calls(Runner& runner, const WorkloadSpec& spec,
                          SpanRecorder& rec) {
  SideCalls out;
  WireGenerator& gen = runner.gen();
  Served& served = runner.served();
  FeedClock& clock = feed_clock();
  const core::FleetOptions options = fleet_options(spec);
  std::vector<detectors::DetectorPtr> bank =
      options.detector_factory ? options.detector_factory(options.ctx)
                               : detectors::standard_configurations(options.ctx);
  std::vector<std::string> names;
  std::size_t warmup = 0;
  for (const auto& d : bank) {
    names.push_back(d->name());
    warmup = std::max(warmup, d->warmup_points());
  }
  const std::uint32_t kScore = rec.intern("ml.score");
  const std::uint32_t kTrain = rec.intern("ml.train");
  const std::uint32_t kPick = rec.intern("eval.cthld_pick");
  const std::size_t total = spec.setup_ticks + spec.timed_ticks;

  std::int64_t score_ns = 0;
  std::size_t scored = 0;
  std::int64_t train_ns = 0;
  std::int64_t pick_ns = 0;
  std::vector<SeriesOp> ops;
  struct Window {
    std::size_t lo, hi, seen;
    bool timed;
  };
  std::vector<Window> windows;
  for (std::size_t k = 0; k < runner.sampled().size(); ++k) {
    const std::size_t i = runner.sampled()[k];
    const auto& rows = clock.rows[k];
    const std::string fingerprint =
        served.engine->forest_fingerprint(served.handles[i]);
    const core::FleetSeriesStats stats = served.engine->stats(served.handles[i]);
    if (rows.size() != stats.points_seen) {
      out.skipped.push_back(gen.series_id(i) + ": captured rows != points_seen");
      continue;
    }

    // Replay the series' schedule to find the window of every retrain
    // (bounded history trimmed like the engine's; a window without
    // positive labels is skipped, as the engine does).
    windows.clear();
    std::size_t seen = 0, base = 0, kept = 0, labeled = 0;
    for (std::size_t t = 0; t < total; ++t) {
      gen.ops_for_tick(i, t, ops);
      for (const SeriesOp& op : ops) {
        if (op.label) {
          labeled = std::max(labeled, op.end);
          continue;
        }
        for (std::size_t j = op.begin; j < op.end; ++j) {
          ++seen;
          ++kept;
          if (kept >= 2 * kHistoryPoints) {
            base += kept - kHistoryPoints;
            kept = kHistoryPoints;
          }
          if (served.engine->scheduler().due_at(stats.phase, seen)) {
            const std::size_t lo = std::max(warmup, base);
            const std::size_t hi = std::min(labeled, base + kept);
            bool positive = false;
            for (std::size_t x = lo; x < hi && !positive; ++x) positive = gen.label(i, x) != 0;
            if (positive) windows.push_back({lo, hi, seen, t >= spec.setup_ticks});
          }
        }
      }
    }
    if (windows.empty() != fingerprint.empty()) {
      out.skipped.push_back(gen.series_id(i) + (windows.empty()
                                                    ? ": trained, but the replay finds no window"
                                                    : ": never trained, but the replay finds a window"));
      continue;
    }
    if (windows.empty()) {
      ++out.untrained;  // no positive label in any window: nothing to time
      continue;
    }

    // Score: the served forest, reloaded, over the timed feature rows.
    std::istringstream in(fingerprint);
    const ml::LoadedForest loaded = ml::load_forest(in);
    const std::int64_t score_start = now_ns();
    double sum = 0.0;
    for (std::size_t j = spec.setup_ticks; j < rows.size(); ++j) {
      sum += loaded.forest.score(rows[j]);
    }
    const std::int64_t score_end = now_ns();
    volatile double sink = sum;  // keeps the scoring loop
    (void)sink;
    rec.add(Span{kScore, -1, i, score_start, score_end, rows.size() - spec.setup_ticks});
    score_ns += score_end - score_start;
    scored += rows.size() - spec.setup_ticks;

    // Train + pick on every timed round's window; the last round's
    // forest must be the served one byte for byte.
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const Window& win = windows[w];
      const bool last = w + 1 == windows.size();
      if (!win.timed && !last) continue;
      std::vector<std::vector<double>> columns(names.size());
      std::vector<std::uint8_t> labels;
      for (std::size_t j = win.lo; j < win.hi; ++j) {
        for (std::size_t f = 0; f < names.size(); ++f) columns[f].push_back(rows[j][f]);
        labels.push_back(gen.label(i, j));
      }
      const ml::Dataset train(names, std::move(columns), std::move(labels));
      const std::int64_t train_start = now_ns();
      ml::RandomForest forest(options.forest);
      forest.train(train);
      const std::int64_t train_end = now_ns();
      const std::size_t n_rows = train.num_rows();
      const std::size_t window = std::min(n_rows, spec.retrain_interval);
      const ml::Dataset recent = train.slice(n_rows - window, n_rows);
      const std::vector<double> recent_scores = forest.score_all(recent);
      const std::int64_t pick_start = now_ns();
      const eval::PrCurve curve(recent_scores, recent.labels());
      const eval::ThresholdChoice choice = eval::pick_threshold(
          curve, eval::ThresholdMethod::kPcScore, options.preference);
      const std::int64_t pick_end = now_ns();
      (void)choice;
      if (win.timed) {
        rec.add(Span{kTrain, -1, i, train_start, train_end, win.seen});
        rec.add(Span{kPick, -1, i, pick_start, pick_end, 1});
        train_ns += train_end - train_start;
        pick_ns += pick_end - pick_start;
        ++out.rounds;
      }
      if (last) {
        std::ostringstream saved;
        ml::save_forest(saved, forest, names);
        ++out.forests_checked;
        if (saved.str() == fingerprint) ++out.forests_matching;
      }
    }
  }
  if (scored > 0) out.score_us_per_point = static_cast<double>(score_ns) / 1e3 / static_cast<double>(scored);
  if (out.rounds > 0) {
    out.train_ms_per_round = static_cast<double>(train_ns) / 1e6 / static_cast<double>(out.rounds);
    out.cthld_pick_ms_per_round = static_cast<double>(pick_ns) / 1e6 / static_cast<double>(out.rounds);
  }
  return out;
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out += ", ";
    out += "\"" + metrics[k].name + "\": {\"value\": " + json_number(metrics[k].value) +
           ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  const WorkloadSpec spec = workload_spec(args.workload);
  util::set_global_threads(1);
  // Log lines would land inside the timed ticks; keep them off whatever
  // OPPRENTICE_LOG says.
  obs::set_log_level(obs::LogLevel::kOff);

  Provenance prov;
  prov.load_start = load_average_1m();
  prov.calib_ms = calibration_ms();
  prov.cpu_model = cpu_model();
  prov.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  prov.pool_threads = util::global_thread_count();

  Runner runner(spec, args.seed);
  SpanRecorder recorder;
  std::vector<RepResult> reps;
  const std::size_t rep_count = args.trace ? 2 : spec.reps;
  for (std::size_t k = 0; k < rep_count; ++k) {
    const bool traced = args.trace && k == rep_count - 1;
    reps.push_back(runner.run(traced, traced ? &recorder : nullptr));
  }
  const RepResult& last = reps.back();
  CheckResult check = check_outputs(runner, spec);
  SideCalls side;
  if (args.trace) {
    // The re-timed train and cThld pick must be the engine's own rounds.
    side = time_side_calls(runner, spec, recorder);
    for (const std::string& what : side.skipped) check.fail("side calls: " + what);
    if (side.rounds == 0) check.fail("side calls: no timed retrain round to re-time");
    if (side.forests_checked == 0 || side.forests_matching != side.forests_checked) {
      check.fail("side calls: " + std::to_string(side.forests_matching) + " of " +
                 std::to_string(side.forests_checked) +
                 " re-trained forests match the served ones");
    }
  }
  prov.load_end = load_average_1m();

  // Determinism guards: every repetition does exactly the same work.
  for (const RepResult& r : reps) {
    if (r.timed_points != last.timed_points || r.frames_sent != last.frames_sent ||
        r.retrains_per_tick != last.retrains_per_tick ||
        r.samples_per_tick != last.samples_per_tick) {
      check.fail("repetitions disagree on frame / point / per-tick retrain counts");
    }
  }
  // Mode guard: no reported rank may sit near a boundary between ticks
  // with different retrain counts (0 vs 1, 1 vs 2, ...).
  const double retrain_share = static_cast<double>(last.retrain_tick_frames) /
                               static_cast<double>(std::max<std::size_t>(1, last.timed_data_frames));
  const std::vector<double> mode_shares =
      retrain_mode_shares(last.retrains_per_tick, last.samples_per_tick);
  for (const double q : {0.5, 0.99}) {
    for (std::size_t c = 0; c < mode_shares.size(); ++c) {
      if (rank_near_mode_boundary(mode_shares[c], q)) {
        check.fail("percentile " + json_number(q) + " rank lies near the share " +
                   json_number(mode_shares[c]) + " of samples in ticks with more than " +
                   std::to_string(c) + " retrains");
      }
    }
  }
  std::size_t attempted = 0;
  std::size_t failed = check.missing_point_frames;
  for (const RepResult& r : reps) {
    attempted += r.frames_sent;
    failed += r.non_ack;
  }
  if (failed > 0) {
    check.fail(std::to_string(failed) + " frames failed (" +
               std::to_string(failed - check.missing_point_frames) +
               " not acknowledged)");
  }

  std::printf("workload %s seed %llu: %zu series, %zu sources, %zu-point frames, "
              "%zu set-up + %zu timed ticks, %zu repetition(s)%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed), spec.series,
              spec.sources, spec.frame_points, spec.setup_ticks, spec.timed_ticks,
              reps.size(), args.trace ? " (last one traced)" : "");
  std::printf("provenance: {\"cpu\": \"%s\", \"nproc\": %ld, \"pool_threads\": %zu, "
              "\"load_start\": %.2f, \"load_end\": %.2f, \"host.calib_ms\": %.3f}\n",
              prov.cpu_model.c_str(), prov.nproc, prov.pool_threads, prov.load_start,
              prov.load_end, prov.calib_ms);
  const DefectCounts& d = runner.gen().injected();
  std::printf("counts: frames=%zu timed_data_frames=%zu timed_points=%zu retrains=%zu "
              "retrain_ticks=%zu retrain_frames=%zu defects{drop=%zu dup=%zu swap=%zu "
              "nan=%zu seq=%zu} repairs{%s} aucpr_points=%zu aucpr_positives=%zu\n",
              last.frames_sent, last.timed_data_frames, last.timed_points,
              last.retrains_timed, last.retrain_ticks, last.retrain_tick_frames, d.dropped,
              d.duplicated, d.swapped, d.nan, d.seq_swaps, check.repairs.summary().c_str(),
              check.scored_points, check.scored_positives);
  std::vector<std::size_t> ticks_by_count;
  for (const std::size_t c : last.retrains_per_tick) {
    if (ticks_by_count.size() <= c) ticks_by_count.resize(c + 1, 0);
    ++ticks_by_count[c];
  }
  std::printf("timed ticks by retrains:");
  for (std::size_t c = 0; c < ticks_by_count.size(); ++c) {
    std::printf(" %zu:%zu", c, ticks_by_count[c]);
  }
  double timed_s = 0.0;
  for (const RepResult& r : reps) timed_s += r.busy_s;
  std::printf("; timed %.2f s over %zu repetition(s)\n", timed_s, reps.size());
  for (const std::string& what : check.failures) std::printf("CHECK FAILED: %s\n", what.c_str());
  if (check.count > check.failures.size()) {
    std::printf("CHECK FAILED: ... %zu failed checks in all\n", check.count);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    // Every repetition replays the same ticks on a fresh engine; each
    // metric is the median over the repetitions.
    std::vector<double> pps, p50, p99, setup;
    for (std::size_t k = 0; k < reps.size(); ++k) {
      const RepResult& r = reps[k];
      pps.push_back(static_cast<double>(r.timed_points) / r.busy_s);
      p50.push_back(percentile(r.latency_ms, 0.5));
      p99.push_back(percentile(r.latency_ms, 0.99));
      setup.push_back(r.setup_s);
      std::printf("repetition %zu: setup %.4f s, %.1f points/s, p50 %.4f ms, p99 %.4f ms\n", k,
                  setup.back(), pps.back(), p50.back(), p99.back());
    }
    const std::size_t n = last.latency_ms.size();
    std::printf("verdict latency: n=%zu samples per repetition, %zu beyond p99, %zu beyond p50\n",
                n, samples_beyond(n, 0.99), samples_beyond(n, 0.5));
    metrics = {
        {"points_per_s", median(pps), "1/s"},
        {"verdict_p50_ms", median(p50), "ms"},
        {"verdict_p99_ms", median(p99), "ms"},
        {"setup_s", median(setup), "s"},
        {"rss_per_series_kb", reps.front().rss_kb_per_series, "KiB"},
        {"aucpr", check.aucpr, "ratio"},
    };
  } else {
    const RepResult& plain = reps.front();
    const TraceTotals& tr = last.trace;
    const double points = static_cast<double>(last.timed_points);
    std::size_t timed_frames = 0;
    for (std::size_t k = 0; k < recorder.spans().size(); ++k) {
      if (recorder.names()[recorder.spans()[k].name] == "net.on_bytes") ++timed_frames;
    }
    std::int64_t detector_ns = 0;
    for (const std::int64_t ns : tr.family_ns) detector_ns += ns;
    const double extract_us = static_cast<double>(detector_ns) / 1e3 / points;
    const double apply_self_us =
        static_cast<double>(tr.tick_ns - detector_ns) / 1e3 / points;
    const double repair_us_total = static_cast<double>(tr.repair_ns) / 1e3;
    const double unattributed_us =
        apply_self_us - repair_us_total / points - side.score_us_per_point;
    const double on_bytes_us = static_cast<double>(tr.on_bytes_ns) / 1e3;
    const double pps_plain = static_cast<double>(plain.timed_points) / plain.busy_s;
    const double pps_traced = points / last.busy_s;

    metrics.push_back({"detectors.extract_us_per_point", extract_us, "us"});
    for (std::size_t k = 0; k < family_names().size(); ++k) {
      metrics.push_back({"detectors.family." + family_names()[k] + ".us_per_point",
                         static_cast<double>(tr.family_ns[k]) / 1e3 / points, "us"});
    }
    metrics.push_back({"net.accept_us_per_frame",
                       on_bytes_us / static_cast<double>(std::max<std::size_t>(1, timed_frames)), "us"});
    metrics.push_back({"net.wire_bytes_per_point", static_cast<double>(tr.wire_bytes) / points, "B"});
    metrics.push_back({"core.queue_wait_ms",
                       static_cast<double>(tr.queue_wait_ns) / 1e6 /
                           static_cast<double>(std::max<std::size_t>(1, timed_frames)), "ms"});
    metrics.push_back({"core.apply_self_us_per_point", apply_self_us, "us"});
    metrics.push_back({"core.unattributed_us_per_point", unattributed_us, "us"});
    metrics.push_back({"core.retrains", static_cast<double>(last.retrains_timed), "count"});
    metrics.push_back({"core.retrain_tick_frac", retrain_share, "ratio"});
    metrics.push_back({"timeseries.repair_us_per_batch",
                       repair_us_total / static_cast<double>(std::max<std::size_t>(1, tr.repair_batches)), "us"});
    metrics.push_back({"timeseries.defects_per_point",
                       static_cast<double>(tr.repaired_defects) / points, "ratio"});
    metrics.push_back({"ml.score_us_per_point", side.score_us_per_point, "us"});
    metrics.push_back({"ml.train_ms_per_round", side.train_ms_per_round, "ms"});
    metrics.push_back({"eval.cthld_pick_ms_per_round", side.cthld_pick_ms_per_round, "ms"});
    metrics.push_back({"obs.trace_overhead_frac", 1.0 - pps_traced / pps_plain, "ratio"});
    metrics.push_back({"host.calib_ms", prov.calib_ms, "ms"});

    // The layer budget: busy time per applied point, adding up to the
    // traced replay's on_bytes + tick time.
    const double busy_us = (on_bytes_us + static_cast<double>(tr.tick_ns) / 1e3) / points;
    std::printf("\nlayer budget, %s (traced replay, %.0f points, %zu frames)\n",
                spec.name.c_str(), points, timed_frames);
    std::printf("  %-44s %12s %8s\n", "layer", "us/point", "share");
    auto row = [&](const std::string& name, double us) {
      std::printf("  %-44s %12.4f %7.1f%%\n", name.c_str(), us, 100.0 * us / busy_us);
    };
    row("net.on_bytes (accept, parse, queue)", on_bytes_us / points);
    for (std::size_t k = 0; k < family_names().size(); ++k) {
      if (tr.family_ns[k] > 0) {
        row("detectors." + family_names()[k], static_cast<double>(tr.family_ns[k]) / 1e3 / points);
      }
    }
    row("timeseries.repair_series (re-timed)", repair_us_total / points);
    row("ml.score (re-timed)", side.score_us_per_point);
    row("unattributed (tick self - repair - score)", unattributed_us);
    const double retrain_us = (side.train_ms_per_round + side.cthld_pick_ms_per_round) *
                              1e3 * static_cast<double>(last.retrains_timed) / points;
    row("  of which retrain rounds (re-timed)", retrain_us);
    row("  remainder", unattributed_us - retrain_us);
    row("total busy", busy_us);
    std::printf("  not busy: core.queue_wait %.4f ms/frame\n",
                static_cast<double>(tr.queue_wait_ns) / 1e6 /
                    static_cast<double>(std::max<std::size_t>(1, timed_frames)));
    std::printf("  per retrain round: ml.train %.3f ms, eval.cthld_pick %.3f ms "
                "(%zu timed rounds of %zu sampled series re-timed; %zu of %zu last "
                "forests identical to the served ones, %zu series never trained)\n",
                side.train_ms_per_round, side.cthld_pick_ms_per_round, side.rounds,
                runner.sampled().size(), side.forests_matching, side.forests_checked,
                side.untrained);
    std::printf("  trace overhead: %.1f%% (untraced %.0f pts/s, traced %.0f pts/s)\n",
                100.0 * (1.0 - pps_traced / pps_plain), pps_plain, pps_traced);
    std::filesystem::create_directories(args.trace_dir);
    const std::string path = args.trace_dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (recorder.write_jsonl(path)) {
      std::printf("  spans: %zu written to %s\n", recorder.spans().size(), path.c_str());
    } else {
      check.fail("could not write spans to " + path);
    }
  }
  print_result(check.ok, attempted, failed, metrics);
  return check.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "served_bench: %s\n", e.what());
    return 2;
  }
}
