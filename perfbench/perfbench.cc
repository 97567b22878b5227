// fixy_perfbench: the benchmark program behind perfbench/run.py.
//
//   fixy_perfbench gen --workload W --seed S --data DIR
//       Materializes the workload's inputs (scenario preset, scene count,
//       seed) into DIR: scene JSON, manifest, ground-truth ledger and
//       dataset.fxb. Runs in its own process, so the simulator never counts
//       towards the timed process's set-up time or peak memory.
//
//   fixy_perfbench inputs --workload W --seed S
//       Prints what `gen` would make (preset and scene counts), the key of
//       run.py's input cache.
//
//   fixy_perfbench run --workload W --seed S --seconds N --trace 0|1
//                      --data DIR --work DIR
//       Sets the program up several times, measures the workload for N
//       seconds (and at least the sample count its tail percentile needs),
//       checks every output against an independent computation, and prints
//       the result as the last line of standard output:
//         {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//       --trace 0 prints the end-to-end metrics; --trace 1 times the calls
//       into each layer's public functions from this file, keeps the spans
//       in memory, writes them to <work>/trace.json at the end and prints
//       the per-layer metrics instead.
//
// Workloads (README.md explains why each exists):
//   batch-dense    Fixy::RankDatasetStreaming over a dense-urban-intersection
//                  FXB cache, 2 rank threads, 1 decode thread, closed batches.
//   serve-highway  an in-process FixydServer (2 workers) holding a
//                  highway-convoy dataset, two closed-loop FixydClients
//                  sending single-scene rank requests in a seeded order.
//   watch-edits    WatchDataset --learn-labels over a lyft-like directory
//                  that receives seeded rounds of scene adds ending in one
//                  in-place modify.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "core/engine.h"
#include "core/model_io.h"
#include "core/proposal_io.h"
#include "core/ranker.h"
#include "core/scene_pass.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "daemon/watch.h"
#include "dsl/feature.h"
#include "eval/metrics.h"
#include "geometry/iou.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "scenario/ledger_io.h"
#include "scenario/materialize.h"
#include "scenario/presets.h"
#include "stats/simd.h"

namespace fs = std::filesystem;

namespace fixy::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// The three paper applications, named explicitly: `all` would also pull
/// in whatever demo applications a front end registers.
const std::vector<std::string> kApps = {"missing-tracks", "missing-obs",
                                        "model-errors"};

constexpr int kRankThreads = 2;
constexpr int kDecodeThreads = 1;
constexpr int kServeWorkers = 2;
constexpr int kServeClients = 2;
/// serve-highway reports the median over this many windows (each needs
/// 200 requests for ten beyond its p95).
constexpr size_t kServeWindows = 3;
/// Threads for the untimed reference rankings of the output checks.
constexpr int kCheckThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr int kWatchPollMs = 2;
constexpr int kWatchBaseScenes = 4;
constexpr int kTop = 10;
/// Watch rounds whose added scenes are scored against the ledger.
constexpr size_t kScoredWatchRounds = 6;
/// A phase that has not gathered its samples after this long is a bug in
/// the benchmark's sizing, not a measurement.
constexpr double kPhaseCapMs = 120000.0;

/// Every workload reads two datasets of its preset. `train` is fixed (the
/// preset's own seed): the labels the model is learned from, and the watch
/// phase's base directory. `audit` comes from --seed: the scenes ranked,
/// served, or added. Keeping the learned model independent of the seed
/// keeps the per-scene cost from swinging with it.
struct WorkloadSpec {
  std::string name;
  std::string preset;
  int train_scenes = 0;
  int audit_scenes = 0;
  /// Adds per watch round; each round adds the next audit scenes.
  int watch_adds = 0;
  /// The tail percentile reported as op_ms_tail, and the sample floor that
  /// puts at least ten samples beyond it.
  double tail_q = 0.9;
  size_t min_ops = 100;
};

const std::vector<WorkloadSpec>& Workloads(bool smoke) {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"batch-dense", "dense-urban-intersection", 12, 64, 3, 0.90, 128},
      {"serve-highway", "highway-convoy", 16, 128, 3, 0.95, 600},
      {"watch-edits", "lyft-like", kWatchBaseScenes, 60, 9, 0.75, 60},
  };
  // Tiny inputs that run every phase and check in seconds; the tail
  // percentile then has too few samples and is not enforced.
  static const std::vector<WorkloadSpec> kSmoke = {
      {"batch-dense", "dense-urban-intersection", 4, 4, 2, 0.90, 1},
      {"serve-highway", "highway-convoy", 4, 6, 2, 0.95, 3},
      {"watch-edits", "lyft-like", kWatchBaseScenes, 4, 2, 0.75, 1},
  };
  return smoke ? kSmoke : kSpecs;
}

[[noreturn]] void Die(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void MustOk(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(*result);
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile q in [0, 1].
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

size_t CountAbove(const std::vector<double>& v, double x) {
  return static_cast<size_t>(
      std::count_if(v.begin(), v.end(), [x](double s) { return s > x; }));
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string ReadWholeFile(const std::string& path) {
  std::string out;
  MustOk(io::ReadFileInto(path, &out), "read " + path);
  return out;
}

/// Writes `bytes` beside `path` and renames it into place, so a watcher
/// never sees a half-written file.
void WriteAtomically(const std::string& path, const std::string& bytes,
                     const std::string& scratch_dir) {
  const std::string tmp = scratch_dir + "/edit.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) Die("cannot write " + tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) Die("cannot rename into " + path + ": " + ec.message());
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from this file around calls into the program.

struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  /// Pauses or resumes recording (an untraced reference inside a traced
  /// run).
  void set_on(bool on) { on_ = on; }

  int Begin(const std::string& name) {
    if (!on_) return -1;
    const double now = MsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now, now, parent});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }

  void End(int id) {
    if (id < 0) return;
    const double now = MsBetween(origin_, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ms = now;
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Self time per layer (the span name up to its first '.'): a span's
  /// duration minus the durations of its child spans.
  std::map<std::string, double> SelfMsByLayer() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ms[static_cast<size_t>(span.parent)] +=
            span.end_ms - span.start_ms;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::string layer = span.name.substr(0, span.name.find('.'));
      out[layer] += std::max(0.0, span.end_ms - span.start_ms - child_ms[i]);
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    json::Array spans;
    for (size_t i = 0; i < spans_.size(); ++i) {
      json::Object s;
      s["id"] = json::Value(static_cast<int64_t>(i));
      s["name"] = json::Value(spans_[i].name);
      s["start_ms"] = json::Value(spans_[i].start_ms);
      s["end_ms"] = json::Value(spans_[i].end_ms);
      s["parent"] = json::Value(static_cast<int64_t>(spans_[i].parent));
      spans.emplace_back(std::move(s));
    }
    json::Object root;
    root["spans"] = json::Value(std::move(spans));
    std::ofstream out(path, std::ios::trunc);
    out << json::Write(json::Value(std::move(root)), /*pretty=*/false) << "\n";
  }

 private:
  std::atomic<bool> on_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  // Spans nest per thread; the parent is the innermost open span on the
  // same thread.
  static thread_local std::vector<int> stack_;
};

thread_local std::vector<int> Tracer::stack_;

/// Times one call; records a span when tracing is on.
class Timed {
 public:
  Timed(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)), start_(Clock::now()) {}
  ~Timed() { Stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (once) and returns its duration in ms.
  double Stop() {
    if (!stopped_) {
      ms_ = MsBetween(start_, Clock::now());
      tracer_.End(id_);
      stopped_ = true;
    }
    return ms_;
  }

 private:
  Tracer& tracer_;
  int id_;
  Clock::time_point start_;
  bool stopped_ = false;
  double ms_ = 0.0;
};

// ---------------------------------------------------------------------------
// Run state shared by the phases.

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunState {
  const WorkloadSpec* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  /// The seeded audit dataset and the fixed training dataset.
  std::string data_dir;
  std::string train_dir;
  std::string work_dir;
  std::unique_ptr<Tracer> tracer;
  sim::GtLedger ledger;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;

  std::map<std::string, Metric> metrics;
  std::vector<double> setup_s;
  /// Precision bookkeeping over (scene, app) pairs.
  std::vector<double> precision_at_10;
  std::vector<double> random_order_precision;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("CHECK FAILED: " + why);
  }
};

std::string ModelPath(const RunState& st, const std::string& tag) {
  return st.work_dir + "/model-" + tag + ".json";
}

std::string ProposalBytes(const std::vector<ErrorProposal>& proposals) {
  return json::Write(ProposalsToJson(proposals), /*pretty=*/true);
}

ProposalKind KindOf(const std::string& app) {
  if (app == "missing-tracks") return ProposalKind::kMissingTrack;
  if (app == "missing-obs") return ProposalKind::kMissingObservation;
  return ProposalKind::kModelError;
}

/// Checks one ranked list (finite scores, most-suspicious-first) and adds
/// its precision@10 and random-order precision against the ledger.
void ScoreAgainstLedger(RunState& st, const std::string& app,
                        const std::string& scene,
                        const std::vector<ErrorProposal>& ranked) {
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (!std::isfinite(ranked[i].score)) {
      st.Fail("non-finite score in " + scene + " [" + app + "]");
      return;
    }
    if (i > 0 && ranked[i].score > ranked[i - 1].score) {
      st.Fail("proposals not sorted most-suspicious-first in " + scene +
              " [" + app + "]");
      return;
    }
  }
  const std::vector<const sim::GtError*> claimable =
      eval::ClaimableErrors(st.ledger, KindOf(app), scene);
  const eval::PrecisionResult top = eval::PrecisionAtK(ranked, claimable, kTop);
  if (top.considered == 0) return;
  const eval::PrecisionResult all =
      eval::PrecisionAtK(ranked, claimable, ranked.size());
  st.precision_at_10.push_back(top.precision);
  st.random_order_precision.push_back(all.precision);
}

/// precision_at_10 must beat random order: the paper's claim that ranking
/// puts real errors first.
void FinishPrecision(RunState& st) {
  if (st.precision_at_10.empty()) {
    st.Fail("no ranked (scene, app) pair to score against the ledger");
    return;
  }
  double p = 0.0;
  double base = 0.0;
  for (double v : st.precision_at_10) p += v;
  for (double v : st.random_order_precision) base += v;
  p /= static_cast<double>(st.precision_at_10.size());
  base /= static_cast<double>(st.random_order_precision.size());
  st.Set("precision_at_10", p, "share");
  st.notes.push_back("precision_at_10 " + std::to_string(p) +
                     " vs random-order base rate " + std::to_string(base) +
                     " over " + std::to_string(st.precision_at_10.size()) +
                     " (scene, app) pairs");
  if (!(p > base)) st.Fail("precision_at_10 does not beat the base rate");
}

/// A stretch of a run's operations: their latencies and the throughput
/// they were completed at.
struct Window {
  std::vector<double> op_ms;
  double ops_per_s = 0.0;
};

/// Reports throughput, median and tail latency: each computed per window,
/// then the median over windows, so one burst of host contention in one
/// window does not set the figure. Every window must hold at least ten
/// samples beyond the tail percentile.
void SetLatencies(RunState& st, const std::vector<Window>& windows) {
  const WorkloadSpec& w = *st.workload;
  std::vector<double> rate, p50, tail;
  size_t ops = 0;
  size_t fewest_beyond = SIZE_MAX;
  for (const Window& window : windows) {
    rate.push_back(window.ops_per_s);
    p50.push_back(Quantile(window.op_ms, 0.5));
    tail.push_back(Quantile(window.op_ms, w.tail_q));
    ops += window.op_ms.size();
    fewest_beyond =
        std::min(fewest_beyond, CountAbove(window.op_ms, tail.back()));
  }
  st.Set("ops_per_s", Median(rate), "1/s");
  st.Set("op_ms_p50", Median(p50), "ms");
  st.Set("op_ms_tail", Median(tail), "ms");
  char line[200];
  std::snprintf(line, sizeof(line),
                "latency over %zu ops in %zu window(s): p50 %.3f ms, p%.0f "
                "%.3f ms (at least %zu beyond in every window)",
                ops, windows.size(), Median(p50), w.tail_q * 100.0,
                Median(tail), fewest_beyond);
  st.notes.push_back(line);
  if (fewest_beyond < 10 && !st.smoke) {
    st.Fail("fewer than ten samples beyond the tail percentile");
  }
}

// ---------------------------------------------------------------------------
// Inputs.

/// The FXB source records of a dataset (file, size, content CRC) folded
/// into one line: a simulator change shows up here as changed inputs.
void PrintInputFingerprint(const RunState& st, const std::string& dir,
                           const char* role, int scenes, const char* seed) {
  const std::vector<io::FxbSourceRecord> records =
      Must(io::CollectSourceRecords(dir, /*read_contents=*/true),
           "fingerprint inputs");
  uint64_t bytes = 0;
  std::string digest;
  for (const io::FxbSourceRecord& r : records) {
    bytes += r.size;
    digest += r.file;
    digest += std::to_string(r.size) + ":" + std::to_string(r.crc) + ";";
  }
  std::printf(
      "inputs: workload=%s %s preset=%s scenes=%d seed=%s source_files=%zu "
      "source_bytes=%llu source_crc=%08x\n",
      st.workload->name.c_str(), role, st.workload->preset.c_str(), scenes,
      seed, records.size(), static_cast<unsigned long long>(bytes),
      Crc32(digest));
}

/// Host CPU counters from /proc/stat: (steal, total) jiffies. Steal is time
/// the hypervisor ran someone else on this machine's CPUs.
std::pair<double, double> HostStealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  double total = 0.0, steal = 0.0, field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

void PrintHost() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  const std::string build = PERFBENCH_BUILD_TYPE;
  std::printf(
      "host: cores=%u cpu=\"%s\" compiler=\"%s\" build=%s%s simd=%s\n",
      std::thread::hardware_concurrency(), cpu.c_str(), PERFBENCH_COMPILER,
      build.c_str(), build == "Release" ? "" : " (NOT A RELEASE BUILD)",
      stats::simd::KernelName(stats::simd::ActiveKernel()));
}

// ---------------------------------------------------------------------------
// Set-up: FXB open, decode, Learn, model save and load.

/// The offline phase over `dir`: FXB open and decode of the labels, Learn,
/// SaveModel to `model_path`.
void LearnAndSave(RunState& st, const std::string& dir,
                  const std::string& model_path) {
  Tracer& tr = *st.tracer;
  Dataset dataset;
  {
    Timed open(tr, "io.open");
    io::FxbReader reader =
        Must(io::FxbReader::Open(io::FxbCachePath(dir)), "open FXB");
    st.metrics["io.open_ms"] = {open.Stop(), "ms"};
    Timed decode(tr, "io.decode_all");
    dataset.name = reader.dataset_name();
    for (size_t i = 0; i < reader.scene_count(); ++i) {
      dataset.scenes.push_back(Must(reader.DecodeScene(i), "decode scene"));
    }
  }
  Fixy learner;
  {
    Timed fit(tr, "learn.fit");
    MustOk(learner.Learn(dataset), "Learn");
    st.metrics["learn.fit_ms"] = {fit.Stop(), "ms"};
  }
  Timed save(tr, "model.save");
  MustOk(learner.SaveModel(model_path), "SaveModel");
  st.metrics["model.save_ms"] = {save.Stop(), "ms"};
}

/// A ranking engine on the saved model.
std::unique_ptr<Fixy> LoadEngine(RunState& st, const std::string& model_path) {
  auto fixy = std::make_unique<Fixy>();
  Timed load(*st.tracer, "model.load");
  MustOk(fixy->LoadModel(model_path), "LoadModel");
  st.metrics["model.load_ms"] = {load.Stop(), "ms"};
  return fixy;
}

std::vector<Scene> DecodeAll(const std::string& dir) {
  const io::FxbReader reader =
      Must(io::FxbReader::Open(io::FxbCachePath(dir)), "open FXB");
  std::vector<Scene> scenes;
  for (size_t i = 0; i < reader.scene_count(); ++i) {
    scenes.push_back(Must(reader.DecodeScene(i), "decode scene"));
  }
  return scenes;
}

/// Serial, one-scene-at-a-time reference rankings (RankScene), spread over
/// kCheckThreads threads with each scene ranked whole on one of them.
std::vector<MultiAppReport> ReferenceRankings(
    const Fixy& fixy, const std::vector<Scene>& scenes) {
  std::vector<MultiAppReport> out(scenes.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < scenes.size(); i = next++) {
        out[i] = Must(fixy.RankScene(scenes[i], kApps), "RankScene");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

// ---------------------------------------------------------------------------
// batch-dense: closed streaming batches.

struct BatchResult {
  uint64_t scenes = 0;
  double wall_ms = 0.0;
  std::vector<double> scene_ms;
  double queue_wait_ms = 0.0;
  double busy_ms = 0.0;
  std::optional<MultiAppReport> first;
};

/// Runs closed batches until `seconds` have passed and at least `min_ops`
/// scenes ranked (whole batches only).
BatchResult RunBatches(RunState& st, const Fixy& fixy, double seconds,
                       size_t min_ops, const std::string& span_name) {
  const io::FxbSceneSource source(
      Must(io::FxbReader::Open(io::FxbCachePath(st.data_dir)), "open FXB"));
  BatchOptions batch;
  batch.num_threads = kRankThreads;
  batch.collect_metrics = true;  // per-scene wall_ms, the op latency
  StreamOptions stream;
  stream.decode_threads = kDecodeThreads;
  BatchResult result;
  const Clock::time_point start = Clock::now();
  while (MsBetween(start, Clock::now()) < seconds * 1000.0 ||
         result.scene_ms.size() < min_ops) {
    Timed timed(*st.tracer, span_name);
    MultiAppReport report = Must(
        fixy.RankDatasetStreaming(source, kApps, batch, stream), "rank batch");
    result.wall_ms += timed.Stop();
    const BatchReport& first_app = report.reports.front();
    result.scenes += first_app.outcomes.size();
    for (const SceneOutcome& outcome : first_app.outcomes) {
      result.scene_ms.push_back(outcome.wall_ms);
      result.busy_ms += outcome.wall_ms;
    }
    // Rank workers wait on the decode queue (streaming) or the pool.
    for (const char* key : {"io.fxb.queue_wait", "batch.queue_wait"}) {
      const auto wait = report.metrics.timers_ms.find(key);
      if (wait != report.metrics.timers_ms.end()) {
        result.queue_wait_ms += wait->second;
      }
    }
    st.attempted += first_app.outcomes.size();
    for (size_t a = 0; a < report.reports.size(); ++a) {
      for (size_t i = 0; i < report.reports[a].outcomes.size(); ++i) {
        const SceneOutcome& outcome = report.reports[a].outcomes[i];
        if (!outcome.ok()) {
          st.Fail("scene failed in batch: " + outcome.status.ToString());
          continue;
        }
        if (result.first.has_value() &&
            ProposalBytes(outcome.proposals) !=
                ProposalBytes(result.first->reports[a].outcomes[i].proposals)) {
          st.Fail("batch output differs between repeats of " +
                  outcome.scene_name);
        }
      }
    }
    if (!result.first.has_value()) result.first = std::move(report);
    if (MsBetween(start, Clock::now()) > kPhaseCapMs) {
      Die("batch phase ran far past its time without enough samples");
    }
  }
  return result;
}

void CheckBatchAgainstReference(RunState& st, const Fixy& fixy,
                                const MultiAppReport& streamed) {
  const std::vector<Scene> scenes = DecodeAll(st.data_dir);
  const std::vector<MultiAppReport> reference =
      ReferenceRankings(fixy, scenes);
  for (size_t a = 0; a < kApps.size(); ++a) {
    const BatchReport& report = streamed.reports[a];
    if (report.outcomes.size() != scenes.size()) {
      st.Fail("streamed batch lost scenes");
      return;
    }
    for (size_t i = 0; i < scenes.size(); ++i) {
      const std::vector<ErrorProposal>& got = report.outcomes[i].proposals;
      const std::vector<ErrorProposal>& want =
          reference[i].reports[a].outcomes.front().proposals;
      if (ProposalBytes(got) != ProposalBytes(want)) {
        st.Fail("streamed proposals differ from serial RankScene for " +
                scenes[i].name() + " [" + kApps[a] + "]");
      }
      ScoreAgainstLedger(st, kApps[a], scenes[i].name(), got);
    }
  }
}

void RunBatchDense(RunState& st) {
  std::unique_ptr<Fixy> fixy;
  for (int r = 0; r < (st.smoke ? 1 : kSetupRepeats); ++r) {
    Timed setup(*st.tracer, "setup.engine");
    LearnAndSave(st, st.train_dir, ModelPath(st, "batch"));
    fixy = LoadEngine(st, ModelPath(st, "batch"));
    st.setup_s.push_back(setup.Stop() / 1000.0);
  }
  const BatchResult batch = RunBatches(st, *fixy, st.seconds,
                                       st.workload->min_ops, "engine.batch");
  st.Set("peak_rss_mb", PeakRssMb(), "MB");
  SetLatencies(st, {{batch.scene_ms, static_cast<double>(batch.scenes) /
                                         (batch.wall_ms / 1000.0)}});
  CheckBatchAgainstReference(st, *fixy, *batch.first);
  FinishPrecision(st);
}

// ---------------------------------------------------------------------------
// serve-highway: a resident daemon and closed-loop clients.

class Daemon {
 public:
  /// Starts a daemon over `model_path` and blocks until its first status
  /// request is answered.
  Daemon(const std::string& socket_path, const std::string& model_path) {
    daemon::ServerOptions options;
    options.socket_path = socket_path;
    options.model_path = model_path;
    options.worker_threads = kServeWorkers;
    options.rank_threads = 1;
    server_ = Must(daemon::FixydServer::Create(options), "start fixyd");
    thread_ = std::thread([this] { serve_status_ = server_->Serve(); });
    daemon::FixydClient client =
        Must(daemon::FixydClient::Connect(socket_path), "connect to fixyd");
    daemon::Request status;
    status.kind = daemon::RequestKind::kStatus;
    const daemon::Response response = Must(client.Call(status), "status");
    MustOk(response.status, "status request");
  }

  ~Daemon() {
    server_->RequestStop();
    thread_.join();
  }

 private:
  std::unique_ptr<daemon::FixydServer> server_;
  std::thread thread_;
  Status serve_status_;
};

struct ServeResult {
  std::vector<double> latency_ms;
  /// When each request completed, ms after the loop started.
  std::vector<double> done_ms;
  /// First response per scene index: app -> proposal bytes.
  std::map<size_t, std::map<std::string, std::string>> responses;
  uint64_t failed = 0;
  std::vector<std::string> errors;
};

ServeResult RunClients(RunState& st, const std::string& socket_path,
                       size_t scene_count, double seconds, size_t min_ops,
                       const std::string& span_name) {
  // A fixed, seeded visiting order; client c takes every kServeClients-th
  // request of it, cycling.
  std::vector<size_t> order(scene_count);
  for (size_t i = 0; i < scene_count; ++i) order[i] = i;
  Rng rng(st.seed * 7919 + 17);
  for (size_t i = scene_count; i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformInt(i)]);
  }
  ServeResult result;
  std::mutex mu;
  std::atomic<size_t> issued{0};
  const std::string dir = fs::absolute(st.data_dir).string();
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      daemon::FixydClient client =
          Must(daemon::FixydClient::Connect(socket_path), "connect client");
      for (size_t k = static_cast<size_t>(c);; k += kServeClients) {
        const double elapsed = MsBetween(start, Clock::now());
        if (elapsed >= seconds * 1000.0 && issued.load() >= min_ops) break;
        if (elapsed > kPhaseCapMs) break;
        issued++;
        const size_t scene = order[k % scene_count];
        daemon::Request request;
        request.kind = daemon::RequestKind::kRank;
        request.data_dir = dir;
        request.scene_index = static_cast<int64_t>(scene);
        request.apps = kApps;
        request.top = kTop;
        Timed timed(*st.tracer, span_name);
        Result<daemon::Response> response = client.Call(request);
        const double ms = timed.Stop();
        std::lock_guard<std::mutex> lock(mu);
        if (!response.ok() || !response->status.ok()) {
          result.failed++;
          result.errors.push_back(response.ok()
                                      ? response->status.ToString()
                                      : response.status().ToString());
          continue;
        }
        result.latency_ms.push_back(ms);
        result.done_ms.push_back(MsBetween(start, Clock::now()));
        if (result.responses.count(scene) == 0) {
          std::map<std::string, std::string>& apps = result.responses[scene];
          const json::Value* proposals = response->result.Find("proposals");
          for (const std::string& app : kApps) {
            const json::Value* bytes =
                proposals == nullptr ? nullptr : proposals->Find(app);
            apps[app] = bytes != nullptr && bytes->is_string()
                            ? bytes->AsString()
                            : std::string("<missing>");
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return result;
}

/// Every response must equal in-process RankScene on the same model.
void CheckResponses(RunState& st, const ServeResult& served,
                    const std::vector<Scene>& scenes,
                    const std::vector<MultiAppReport>& reference,
                    bool score) {
  for (const auto& [index, apps] : served.responses) {
    for (size_t a = 0; a < kApps.size(); ++a) {
      const std::vector<ErrorProposal>& all =
          reference[index].reports[a].outcomes.front().proposals;
      if (apps.at(kApps[a]) != ProposalBytes(TopK(all, kTop))) {
        st.Fail("daemon response differs from in-process RankScene for " +
                scenes[index].name() + " [" + kApps[a] + "]");
      }
      if (score) ScoreAgainstLedger(st, kApps[a], scenes[index].name(), all);
    }
  }
  for (const std::string& error : served.errors) {
    st.Fail("request failed: " + error);
  }
}

std::string SocketPath(const RunState& st) {
  // Relative to the checkout: unix socket paths are limited to ~100 bytes.
  return fs::relative(st.work_dir).string() + "/fixyd.sock";
}

/// Status metrics of a running daemon.
obs::PipelineMetrics DaemonMetrics(const std::string& socket_path) {
  daemon::FixydClient client =
      Must(daemon::FixydClient::Connect(socket_path), "connect");
  daemon::Request status;
  status.kind = daemon::RequestKind::kStatus;
  const daemon::Response response = Must(client.Call(status), "status");
  MustOk(response.status, "status");
  const json::Value* metrics = response.result.Find("metrics");
  if (metrics == nullptr) Die("status response carries no metrics");
  return Must(obs::MetricsFromJson(*metrics), "parse status metrics");
}

/// Learn + save + daemon start to its first answered status.
std::unique_ptr<Daemon> SetUpDaemon(RunState& st, const std::string& socket,
                                    double* ms) {
  Tracer& tr = *st.tracer;
  Timed total(tr, "setup.daemon");
  LearnAndSave(st, st.train_dir, ModelPath(st, "serve"));
  std::unique_ptr<Daemon> daemon;
  {
    Timed start(tr, "ipc.start");
    daemon = std::make_unique<Daemon>(socket, ModelPath(st, "serve"));
  }
  *ms = total.Stop();
  return daemon;
}

void WarmUp(RunState& st, const std::string& socket, size_t scenes) {
  // The first rank request opens the resident dataset; keep that lazy
  // open out of the timed loop.
  daemon::FixydClient client = Must(daemon::FixydClient::Connect(socket), "c");
  for (size_t i = 0; i < std::min<size_t>(scenes, 2); ++i) {
    daemon::Request request;
    request.kind = daemon::RequestKind::kRank;
    request.data_dir = fs::absolute(st.data_dir).string();
    request.scene_index = static_cast<int64_t>(i);
    request.apps = kApps;
    MustOk(Must(client.Call(request), "warm-up").status, "warm-up");
  }
}

void RunServeHighway(RunState& st) {
  const std::string socket = SocketPath(st);
  std::unique_ptr<Daemon> daemon;
  for (int r = 0; r < (st.smoke ? 1 : kSetupRepeats); ++r) {
    daemon.reset();
    double ms = 0.0;
    daemon = SetUpDaemon(st, socket, &ms);
    st.setup_s.push_back(ms / 1000.0);
  }
  const std::vector<Scene> scenes = DecodeAll(st.data_dir);
  WarmUp(st, socket, scenes.size());
  const ServeResult served =
      RunClients(st, socket, scenes.size(), st.seconds, st.workload->min_ops,
                 "ipc.request");
  st.Set("peak_rss_mb", PeakRssMb(), "MB");
  daemon.reset();
  st.attempted += served.latency_ms.size() + served.failed;
  st.failed += served.failed;
  // kServeWindows consecutive windows of equal request count.
  std::vector<size_t> order(served.done_ms.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&served](size_t a, size_t b) {
    return served.done_ms[a] < served.done_ms[b];
  });
  std::vector<Window> windows(kServeWindows);
  for (size_t k = 0; k < kServeWindows; ++k) {
    const size_t lo = order.size() * k / kServeWindows;
    const size_t hi = order.size() * (k + 1) / kServeWindows;
    for (size_t i = lo; i < hi; ++i) {
      windows[k].op_ms.push_back(served.latency_ms[order[i]]);
    }
    const double from = lo == 0 ? 0.0 : served.done_ms[order[lo - 1]];
    windows[k].ops_per_s = static_cast<double>(hi - lo) /
                           ((served.done_ms[order[hi - 1]] - from) / 1000.0);
  }
  SetLatencies(st, windows);
  if (served.responses.size() != scenes.size()) {
    st.Fail("the closed loop did not visit every scene");
  }
  Fixy reference_engine;
  MustOk(reference_engine.LoadModel(ModelPath(st, "serve")), "LoadModel");
  CheckResponses(st, served, scenes,
                 ReferenceRankings(reference_engine, scenes), true);
  FinishPrecision(st);
}

// ---------------------------------------------------------------------------
// watch-edits: seeded rounds of adds ending in one in-place modify.

/// Redirects stdout into a file while the watch loop prints its report,
/// so the reported re-rankings can be checked.
class StdoutCapture {
 public:
  explicit StdoutCapture(const std::string& path) : path_(path) {
    std::fflush(stdout);
    saved_ = ::dup(1);
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (saved_ < 0 || fd < 0) Die("cannot capture stdout");
    ::dup2(fd, 1);
    ::close(fd);
  }
  ~StdoutCapture() {
    std::fflush(stdout);
    ::dup2(saved_, 1);
    ::close(saved_);
  }
  std::string Read() const {
    std::fflush(stdout);
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }

 private:
  std::string path_;
  int saved_ = -1;
};

/// What the watch thread's on_cycle observer saw.
struct WatchProbe {
  std::mutex mu;
  std::condition_variable cv;
  size_t cycles = 0;
  size_t scenes_ranked = 0;
  size_t errors = 0;
  Clock::time_point last_cycle_end;
  /// Metric snapshot after the latest and the previous cycle (traced runs).
  obs::PipelineMetrics now;
  obs::PipelineMetrics before;
};

struct EditSample {
  double ms = 0.0;
  size_t ranked = 0;
  double update_ms = 0.0, fold_ms = 0.0, rank_ms = 0.0, poll_wait_ms = 0.0;
  double reencoded = 0.0, reused = 0.0;
};

double TimerDelta(const obs::PipelineMetrics& a, const obs::PipelineMetrics& b,
                  const std::string& key) {
  const auto x = a.timers_ms.find(key);
  const auto y = b.timers_ms.find(key);
  return (x == a.timers_ms.end() ? 0.0 : x->second) -
         (y == b.timers_ms.end() ? 0.0 : y->second);
}

double CounterDelta(const obs::PipelineMetrics& a,
                    const obs::PipelineMetrics& b, const std::string& key) {
  const auto x = a.counters.find(key);
  const auto y = b.counters.find(key);
  return static_cast<double>(x == a.counters.end() ? 0 : x->second) -
         static_cast<double>(y == b.counters.end() ? 0 : y->second);
}

struct WatchResult {
  std::vector<EditSample> adds;
  std::vector<EditSample> edits;  // adds and modifies, in order
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double edit_ms_total = 0.0;
  size_t rounds = 0;
};

/// The manifest of `source_dir` restricted to `files`.
std::string ManifestWith(const std::string& source_dir,
                         const std::vector<std::string>& files) {
  const json::Value manifest = Must(
      json::Parse(ReadWholeFile(source_dir + "/manifest.json")), "manifest");
  json::Object object = manifest.AsObject();
  json::Array scenes;
  for (const std::string& f : files) scenes.emplace_back(f);
  object["scenes"] = json::Value(std::move(scenes));
  return json::Write(json::Value(std::move(object)), /*pretty=*/true);
}

std::vector<std::string> ManifestFiles(const std::string& dir) {
  const json::Value manifest =
      Must(json::Parse(ReadWholeFile(dir + "/manifest.json")), "manifest");
  std::vector<std::string> files;
  for (const json::Value& v : manifest.Find("scenes")->AsArray()) {
    files.push_back(v.AsString());
  }
  return files;
}

/// The block WatchDataset prints for one re-ranked scene and application.
std::string ExpectedWatchBlock(const std::string& scene, const std::string& app,
                               const std::vector<ErrorProposal>& ranked) {
  char head[512];
  std::snprintf(head, sizeof(head), "watch: %s [%s]: %zu candidates\n",
                scene.c_str(), app.c_str(), ranked.size());
  std::string block = head;
  int rank = 1;
  for (const ErrorProposal& p : TopK(ranked, kTop)) {
    char line[512];
    std::snprintf(line, sizeof(line), "  #%2d %s\n", rank++,
                  p.ToString().c_str());
    block += line;
  }
  return block;
}

/// After a phase of edits: the folded model must be byte-identical to a
/// fresh Learn of the directory, and the watch's reported re-ranking of
/// `scene_file` must equal RankScene under that refit. Returns true when
/// both hold. Also scores `score_files`, when given, against the ledger.
bool CheckWatchState(RunState& st, const std::string& dir,
                     const std::string& folded_model,
                     const std::string& reported, size_t report_offset,
                     const std::string& scene_file,
                     const std::vector<std::string>* score_files) {
  const Dataset dataset = Must(io::LoadDataset(dir), "load watched dataset");
  Fixy refit;
  MustOk(refit.Learn(dataset), "refit");
  const std::string refit_path = st.work_dir + "/refit.json";
  MustOk(refit.SaveModel(refit_path), "save refit");
  bool ok = ReadWholeFile(folded_model) == ReadWholeFile(refit_path);
  const Scene scene =
      Must(io::LoadScene(dir + "/" + scene_file), "load edited scene");
  const MultiAppReport ranked = Must(refit.RankScene(scene, kApps), "rank");
  for (size_t a = 0; a < kApps.size(); ++a) {
    const std::string block = ExpectedWatchBlock(
        scene.name(), kApps[a], ranked.reports[a].outcomes.front().proposals);
    if (reported.find(block, report_offset) == std::string::npos) ok = false;
  }
  if (score_files != nullptr) {
    std::vector<Scene> scenes;
    for (const std::string& file : *score_files) {
      scenes.push_back(Must(io::LoadScene(dir + "/" + file), "load scene"));
    }
    const std::vector<MultiAppReport> ranked_all =
        ReferenceRankings(refit, scenes);
    for (size_t i = 0; i < scenes.size(); ++i) {
      for (size_t a = 0; a < kApps.size(); ++a) {
        ScoreAgainstLedger(st, kApps[a], scenes[i].name(),
                           ranked_all[i].reports[a].outcomes.front().proposals);
      }
    }
  }
  return ok;
}

/// Runs rounds until `seconds` passed and at least `min_ops` edits landed.
/// Each round: fresh directory of the first kWatchBaseScenes training
/// scenes, Learn + save + watch start (the set-up), `adds` adds of the next
/// audit scenes, check, then (when `modify`) one in-place modify of a
/// seeded training scene, check.
WatchResult RunWatch(RunState& st, int adds, bool modify, double seconds,
                     size_t min_ops, bool record_setup) {
  Tracer& tr = *st.tracer;
  const std::vector<std::string> base_files = ManifestFiles(st.train_dir);
  const std::vector<std::string> pool = ManifestFiles(st.data_dir);
  if (base_files.size() < static_cast<size_t>(kWatchBaseScenes) ||
      pool.size() < static_cast<size_t>(adds)) {
    Die("datasets too small for the watch phase");
  }
  Rng rng(st.seed * 104729 + 3);
  const size_t modify_index = rng.UniformInt(kWatchBaseScenes);
  const double modify_scale = rng.Uniform(1.05, 1.15);

  WatchResult result;
  const Clock::time_point start = Clock::now();
  const std::string scratch = st.work_dir + "/scratch";
  fs::create_directories(scratch);
  while (MsBetween(start, Clock::now()) < seconds * 1000.0 ||
         result.edits.size() < min_ops) {
    if (MsBetween(start, Clock::now()) > kPhaseCapMs) {
      Die("watch phase ran far past its time without enough samples");
    }
    const std::string dir = st.work_dir + "/watched";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::vector<std::string> files(base_files.begin(),
                                   base_files.begin() + kWatchBaseScenes);
    for (const std::string& f : files) {
      fs::copy_file(st.train_dir + "/" + f, dir + "/" + f);
    }
    WriteAtomically(dir + "/manifest.json", ManifestWith(st.train_dir, files),
                    scratch);
    const std::string model = st.work_dir + "/watch-model.json";

    // Set-up: Learn the base, save, start watching until the bootstrap
    // cycle has ranked it.
    Timed setup(tr, "setup.watch");
    {
      const Dataset base = Must(io::LoadDataset(dir), "load base");
      Fixy learner;
      {
        Timed fit(tr, "learn.fit");
        MustOk(learner.Learn(base), "Learn base");
        fit.Stop();
      }
      Timed save(tr, "model.save");
      MustOk(learner.SaveModel(model), "save base model");
    }
    WatchProbe probe;
    int stop_pipe[2];
    if (::pipe(stop_pipe) != 0) Die("pipe");
    daemon::WatchOptions options;
    options.data_dir = dir;
    options.model_path = model;
    options.apps = kApps;
    options.poll_interval_ms = kWatchPollMs;
    options.learn_labels = true;
    options.top = kTop;
    options.batch.num_threads = kRankThreads;
    options.collect_metrics = st.trace;
    options.stop_fd = stop_pipe[0];
    options.on_cycle = [&probe, &st](const daemon::WatchReport& report) {
      std::lock_guard<std::mutex> lock(probe.mu);
      probe.cycles = report.cycles;
      probe.scenes_ranked = report.scenes_ranked;
      probe.errors = report.errors;
      probe.last_cycle_end = Clock::now();
      if (st.trace) {
        // The watch thread's ambient collector is the loop's own metrics.
        probe.before = std::move(probe.now);
        probe.now = obs::Current()->Snapshot();
      }
      probe.cv.notify_all();
    };
    const std::string capture_path = st.work_dir + "/watch-stdout.txt";
    StdoutCapture capture(capture_path);
    std::thread watcher([&options] {
      const Result<daemon::WatchReport> report = daemon::WatchDataset(options);
      if (!report.ok()) Die("watch: " + report.status().ToString());
    });
    const auto wait_for = [&probe](const std::function<bool()>& done) {
      std::unique_lock<std::mutex> lock(probe.mu);
      return probe.cv.wait_for(lock, std::chrono::seconds(60), done);
    };
    if (!wait_for([&] { return probe.cycles >= 1; })) Die("watch never ran");
    const double setup_ms = setup.Stop();
    if (record_setup) st.setup_s.push_back(setup_ms / 1000.0);

    const auto land_edit = [&](const std::function<void()>& write,
                               const std::string& label) {
      size_t before_ranked = 0;
      {
        std::lock_guard<std::mutex> lock(probe.mu);
        before_ranked = probe.scenes_ranked;
      }
      Timed edit(tr, "watch.edit");
      write();  // the edit has landed when this returns
      const Clock::time_point landed = Clock::now();
      const bool seen = wait_for([&] {
        return probe.scenes_ranked > before_ranked &&
               probe.last_cycle_end > landed;
      });
      edit.Stop();
      if (!seen) Die("watch did not report the " + label + " edit");
      std::lock_guard<std::mutex> lock(probe.mu);
      EditSample sample;
      sample.ms = MsBetween(landed, probe.last_cycle_end);
      sample.ranked = probe.scenes_ranked - before_ranked;
      if (st.trace) {
        sample.update_ms = TimerDelta(probe.now, probe.before, "watch.update");
        sample.fold_ms = TimerDelta(probe.now, probe.before, "watch.fold");
        sample.rank_ms = TimerDelta(probe.now, probe.before, "watch.rank");
        sample.poll_wait_ms =
            sample.ms - TimerDelta(probe.now, probe.before, "watch.cycle");
        sample.reencoded = CounterDelta(probe.now, probe.before,
                                        "io.fxb.sections_reencoded");
        sample.reused =
            CounterDelta(probe.now, probe.before, "io.fxb.sections_reused");
      }
      result.edit_ms_total += sample.ms;
      result.edits.push_back(sample);
      return sample;
    };

    // Adds: the next pool scenes, scene file first, then the manifest.
    size_t offset = capture.Read().size();
    bool adds_ok = true;
    for (int a = 0; a < adds; ++a) {
      const std::string file =
          pool[(result.rounds * static_cast<size_t>(adds) +
                static_cast<size_t>(a)) %
               pool.size()];
      offset = capture.Read().size();
      const EditSample sample = land_edit(
          [&] {
            WriteAtomically(dir + "/" + file,
                            ReadWholeFile(st.data_dir + "/" + file), scratch);
            files.push_back(file);
            WriteAtomically(dir + "/manifest.json",
                            ManifestWith(st.train_dir, files), scratch);
          },
          "add");
      if (sample.ranked != 1) adds_ok = false;
      result.adds.push_back(sample);
    }
    const std::vector<std::string> added(files.begin() + kWatchBaseScenes,
                                         files.end());
    adds_ok = CheckWatchState(st, dir, model, capture.Read(), offset,
                              files.back(),
                              result.rounds < kScoredWatchRounds && record_setup
                                  ? &added
                                  : nullptr) &&
              adds_ok;
    result.attempted += static_cast<uint64_t>(adds);
    if (!adds_ok) {
      result.failed += static_cast<uint64_t>(adds);
      st.notes.push_back("add edits failed the fold/refit check");
    }

    if (modify) {
      // An in-place relabel: every human box of one base scene scaled.
      const std::string file = files[modify_index];
      offset = capture.Read().size();
      const EditSample sample = land_edit(
          [&] {
            Scene scene = Must(io::LoadScene(dir + "/" + file), "load");
            for (Frame& frame : scene.frames()) {
              for (Observation& obs : frame.observations) {
                if (obs.source == ObservationSource::kHuman) {
                  obs.box.length *= modify_scale;
                }
              }
            }
            WriteAtomically(dir + "/" + file, io::SceneToString(scene),
                            scratch);
          },
          "modify");
      const bool modify_ok = sample.ranked == 1 &&
                             CheckWatchState(st, dir, model, capture.Read(),
                                             offset, file, nullptr);
      result.attempted += 1;
      if (!modify_ok) result.failed += 1;
    }

    const char byte = 1;
    if (::write(stop_pipe[1], &byte, 1) != 1) Die("stop watch");
    watcher.join();
    ::close(stop_pipe[0]);
    ::close(stop_pipe[1]);
    result.rounds += 1;
  }
  return result;
}

void RunWatchEdits(RunState& st) {
  const WatchResult watch =
      RunWatch(st, st.workload->watch_adds, /*modify=*/true, st.seconds,
               st.workload->min_ops, /*record_setup=*/true);
  st.Set("peak_rss_mb", PeakRssMb(), "MB");
  st.attempted += watch.attempted;
  st.failed += watch.failed;
  std::vector<double> edit_ms;
  for (const EditSample& e : watch.edits) edit_ms.push_back(e.ms);
  SetLatencies(st, {{edit_ms, static_cast<double>(edit_ms.size()) /
                                  (watch.edit_ms_total / 1000.0)}});
  if (watch.failed > 0) {
    st.notes.push_back(
        "FAULT counted as failed: each modify edit folds the scene's new "
        "labels without retracting its old ones (src/daemon/watch.cc), so "
        "the folded model differs from a fresh Learn of the directory");
  }
  FinishPrecision(st);
}

// ---------------------------------------------------------------------------
// Traced run: every layer, called from here, on this workload's inputs.

/// Distinct (distribution, value-bits) density queries over all queries of
/// the base features on `tracks`, following FeatureDistribution's routing
/// (global distribution first, else the per-class one).
void CountDensityQueries(const std::vector<FeatureDistribution>& features,
                         const TrackSet& tracks, double frame_rate_hz,
                         std::unordered_set<std::string>* distinct,
                         uint64_t* queries) {
  const auto route = [](const FeatureDistribution& fd,
                        std::optional<ObjectClass> cls) -> const void* {
    if (fd.global_distribution() != nullptr) {
      return fd.global_distribution().get();
    }
    if (!cls.has_value()) return nullptr;
    const auto it = fd.per_class_distributions().find(*cls);
    return it == fd.per_class_distributions().end() ? nullptr
                                                    : it->second.get();
  };
  const auto bundle_class =
      [](const ObservationBundle& b) -> std::optional<ObjectClass> {
    if (b.observations.empty()) return std::nullopt;
    int counts[kNumObjectClasses] = {};
    for (const Observation& o : b.observations) {
      ++counts[static_cast<int>(o.object_class)];
    }
    int best = 0;
    for (int i = 1; i < kNumObjectClasses; ++i) {
      if (counts[i] > counts[best]) best = i;
    }
    return static_cast<ObjectClass>(best);
  };
  const auto record = [&](const void* dist, std::optional<double> value) {
    if (dist == nullptr || !value.has_value() || !std::isfinite(*value)) {
      return;
    }
    *queries += 1;
    std::string key(reinterpret_cast<const char*>(&dist), sizeof(dist));
    key.append(reinterpret_cast<const char*>(&*value), sizeof(double));
    distinct->insert(std::move(key));
  };
  for (const FeatureDistribution& fd : features) {
    for (const Track& track : tracks.tracks) {
      const auto& bundles = track.bundles();
      for (size_t b = 0; b < bundles.size(); ++b) {
        FeatureContext ctx;
        ctx.ego_position = bundles[b].ego_position;
        ctx.frame_rate_hz = frame_rate_hz;
        switch (fd.feature().kind()) {
          case FeatureKind::kObservation:
            for (const Observation& o : bundles[b].observations) {
              record(route(fd, o.object_class),
                     static_cast<const ObservationFeature&>(fd.feature())
                         .Compute(o, ctx));
            }
            break;
          case FeatureKind::kBundle:
            record(route(fd, bundle_class(bundles[b])),
                   static_cast<const BundleFeature&>(fd.feature())
                       .Compute(bundles[b], ctx));
            break;
          case FeatureKind::kTransition:
            if (b + 1 < bundles.size()) {
              record(route(fd, bundle_class(bundles[b])),
                     static_cast<const TransitionFeature&>(fd.feature())
                         .Compute(bundles[b], bundles[b + 1], ctx));
            }
            break;
          case FeatureKind::kTrack:
            break;
        }
      }
    }
  }
}

/// Decode → association → score prefill → per-app graph, one scene at a
/// time, each timed from here. The per-app proposals must equal RankScene.
void TraceLayers(RunState& st, const Fixy& fixy,
                 const std::string& model_path) {
  Tracer& tr = *st.tracer;
  const LoadedModel model = Must(
      LoadLearnedModelWithStats(model_path, FeatureRegistry::Standard()),
      "load model");
  const std::vector<FeatureDistribution>& with_count = model.distributions;
  const std::vector<FeatureDistribution> base(with_count.begin(),
                                              with_count.end() - 1);
  const ApplicationOptions& options = fixy.options().application;
  const std::vector<size_t> app_index =
      Must(fixy.applications().Resolve(kApps), "resolve apps");
  std::vector<LoaSpec> specs;
  bool need_full = false;
  bool need_model = false;
  for (size_t idx : app_index) {
    const AppSpec& app = fixy.applications().apps()[idx];
    specs.push_back(app.build_spec(LearnedState{base, with_count}, options));
    (app.view == SceneView::kFull ? need_full : need_model) = true;
  }

  const io::FxbReader reader =
      Must(io::FxbReader::Open(io::FxbCachePath(st.data_dir)), "open FXB");
  std::vector<double> decode_ms, assoc_ms, score_ms;
  std::map<std::string, std::vector<double>> graph_ms;
  double pairs = 0.0, overlapping = 0.0;
  std::unordered_set<std::string> distinct;
  uint64_t queries = 0;
  obs::MetricsCollector collector;
  const size_t n = reader.scene_count();
  for (size_t i = 0; i < n; ++i) {
    std::optional<obs::MetricsScope> scope;
    scope.emplace(&collector);
    Timed scene_span(tr, "scene.layers");
    Timed decode(tr, "io.decode");
    const Scene scene = Must(reader.DecodeScene(i), "decode");
    decode_ms.push_back(decode.Stop());

    Timed assoc(tr, "assoc.run");
    ScenePass pass = Must(
        ScenePass::Run(scene, options.track_builder, need_full, need_model),
        "ScenePass::Run");
    assoc_ms.push_back(assoc.Stop());

    Timed score(tr, "score.prefill");
    for (const SceneView view : {SceneView::kFull, SceneView::kModelOnly}) {
      if (view == SceneView::kFull ? !need_full : !need_model) continue;
      FeatureScoreCache* cache = pass.cache(view);
      const TrackSet& tracks = pass.tracks(view);
      for (const FeatureDistribution& fd : base) {
        for (size_t t = 0; t < tracks.tracks.size(); ++t) {
          cache->Get(fd, tracks.tracks[t], t);
        }
      }
    }
    score_ms.push_back(score.Stop());

    std::vector<std::vector<ErrorProposal>> layered;
    for (size_t a = 0; a < app_index.size(); ++a) {
      const AppSpec& app = fixy.applications().apps()[app_index[a]];
      Timed graph(tr, "graph." + app.name);
      layered.push_back(
          Must(RunApplicationOnPass(app, specs[a], scene, pass, options),
               "RunApplicationOnPass"));
      graph_ms[app.name].push_back(graph.Stop());
    }
    scene_span.Stop();
    scope.reset();

    // Outside every span and the metrics scope: the reference ranking, the
    // candidate pairs and their overlap, and the density-query mix.
    const MultiAppReport reference =
        Must(fixy.RankScene(scene, kApps), "RankScene");
    for (size_t a = 0; a < app_index.size(); ++a) {
      if (ProposalBytes(layered[a]) !=
          ProposalBytes(reference.reports[a].outcomes.front().proposals)) {
        st.Fail("layer-by-layer proposals differ from RankScene for " +
                scene.name() + " [" + kApps[a] + "]");
      }
    }
    for (const Frame& frame : scene.frames()) {
      const auto& obs = frame.observations;
      for (size_t a = 0; a < obs.size(); ++a) {
        for (size_t b = a + 1; b < obs.size(); ++b) {
          pairs += 1.0;
          if (geom::BevIntersectionArea(obs[a].box, obs[b].box) > 0.0) {
            overlapping += 1.0;
          }
        }
      }
    }
    if (need_full) {
      CountDensityQueries(base, pass.tracks(SceneView::kFull),
                          scene.frame_rate_hz(), &distinct, &queries);
    }
    if (need_model) {
      CountDensityQueries(base, pass.tracks(SceneView::kModelOnly),
                          scene.frame_rate_hz(), &distinct, &queries);
    }
  }
  const obs::PipelineMetrics counted = collector.Snapshot();
  const double scenes = static_cast<double>(n);
  st.Set("io.decode_ms_p50", Median(decode_ms), "ms");
  st.Set("assoc.ms_p50", Median(assoc_ms), "ms");
  st.Set("assoc.pairs", pairs / scenes, "count");
  st.Set("assoc.overlap_share", pairs > 0 ? overlapping / pairs : 0.0,
         "share");
  st.Set("score.ms_p50", Median(score_ms), "ms");
  st.Set("score.kde_unique_share",
         queries > 0 ? static_cast<double>(distinct.size()) /
                           static_cast<double>(queries)
                     : 0.0,
         "share");
  for (const std::string& app : kApps) {
    st.Set("graph." + app + ".ms_p50", Median(graph_ms[app]), "ms");
    const auto factors = counted.counters.find("rank." + app + ".factors");
    const auto proposals = counted.counters.find("rank." + app + ".proposals");
    st.Set("graph." + app + ".factors",
           factors == counted.counters.end()
               ? 0.0
               : static_cast<double>(factors->second) / scenes,
           "count");
    st.Set("graph." + app + ".proposals",
           proposals == counted.counters.end()
               ? 0.0
               : static_cast<double>(proposals->second) / scenes,
           "count");
  }
}

/// KDE evaluations per scene of one metered batch (the program's own
/// stats.kde_evals counter).
void TraceEngine(RunState& st, const Fixy& fixy, double seconds,
                 size_t min_ops, double* untraced_ops_per_s,
                 double* traced_ops_per_s) {
  // Untraced reference first, then the traced batch: the difference is
  // the tracing overhead.
  st.tracer->set_on(false);
  const BatchResult plain = RunBatches(st, fixy, seconds, min_ops, "x");
  st.tracer->set_on(true);
  const BatchResult traced =
      RunBatches(st, fixy, seconds, min_ops, "engine.batch");
  *untraced_ops_per_s =
      static_cast<double>(plain.scenes) / (plain.wall_ms / 1000.0);
  *traced_ops_per_s =
      static_cast<double>(traced.scenes) / (traced.wall_ms / 1000.0);
  const double scenes = static_cast<double>(traced.scenes);
  st.Set("engine.queue_wait_ms", traced.queue_wait_ms / scenes, "ms");
  st.Set("engine.busy_share",
         traced.busy_ms / (kRankThreads * traced.wall_ms), "share");
  const auto evals = traced.first->metrics.counters.find("stats.kde_evals");
  const size_t batch_scenes = traced.first->reports.front().outcomes.size();
  st.Set("score.kde_evals",
         evals == traced.first->metrics.counters.end()
             ? 0.0
             : static_cast<double>(evals->second) /
                   static_cast<double>(batch_scenes),
         "count");
}

void TraceDaemon(RunState& st, double seconds, size_t min_ops,
                 double* untraced_p50, double* traced_p50) {
  const std::string socket = SocketPath(st);
  double setup_ms = 0.0;
  std::unique_ptr<Daemon> daemon = SetUpDaemon(st, socket, &setup_ms);
  const std::vector<Scene> scenes = DecodeAll(st.data_dir);
  WarmUp(st, socket, scenes.size());
  st.tracer->set_on(false);
  const ServeResult plain =
      RunClients(st, socket, scenes.size(), seconds, min_ops, "x");
  st.tracer->set_on(true);
  const obs::PipelineMetrics before = DaemonMetrics(socket);
  const ServeResult traced =
      RunClients(st, socket, scenes.size(), seconds, min_ops, "ipc.request");
  const obs::PipelineMetrics after = DaemonMetrics(socket);
  daemon.reset();
  *untraced_p50 = Median(plain.latency_ms);
  *traced_p50 = Median(traced.latency_ms);

  Fixy engine;
  MustOk(engine.LoadModel(ModelPath(st, "serve")), "LoadModel");
  const std::vector<MultiAppReport> reference =
      ReferenceRankings(engine, scenes);
  CheckResponses(st, traced, scenes, reference, false);
  CheckResponses(st, plain, scenes, reference, false);
  // The daemon times RankScene itself (daemon.rank.<app>, one shared pass
  // for all apps): the rest of a request's client latency is IPC, JSON,
  // queueing, dataset revalidation and decode.
  const double requests = CounterDelta(after, before, "daemon.requests");
  double latency_ms = 0.0;
  for (double ms : traced.latency_ms) latency_ms += ms;
  const double rank_ms =
      TimerDelta(after, before, "daemon.rank." + kApps.front());
  st.Set("ipc.overhead_ms", (latency_ms - rank_ms) / requests, "ms");
  st.Set("daemon.queue_wait_ms",
         TimerDelta(after, before, "daemon.queue_wait") / requests, "ms");
}

void TraceWatch(RunState& st, bool own_workload) {
  const WatchResult watch = RunWatch(
      st, st.workload->watch_adds, /*modify=*/false,
      own_workload ? st.seconds : 0.0, own_workload ? st.workload->min_ops : 1,
      /*record_setup=*/false);
  if (watch.failed > 0) st.Fail("add edits failed the fold/refit check");
  std::vector<double> update, fold, rank, poll, ranked, reencoded, reused;
  for (const EditSample& e : watch.adds) {
    update.push_back(e.update_ms);
    fold.push_back(e.fold_ms);
    rank.push_back(e.rank_ms);
    poll.push_back(e.poll_wait_ms);
    ranked.push_back(static_cast<double>(e.ranked));
    reencoded.push_back(e.reencoded);
    reused.push_back(e.reused);
  }
  const auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  st.Set("io.update_ms_p50", Median(update), "ms");
  st.Set("io.sections_reencoded", mean(reencoded), "count");
  st.Set("io.sections_reused", mean(reused), "count");
  st.Set("learn.fold_ms_p50", Median(fold), "ms");
  st.Set("watch.poll_wait_ms_p50", Median(poll), "ms");
  st.Set("watch.rank_ms_p50", Median(rank), "ms");
  st.Set("watch.scenes_ranked", mean(ranked), "count");
  if (mean(ranked) != 1.0) st.Fail("an edit did not re-rank exactly 1 scene");
}

void RunTraced(RunState& st) {
  const WorkloadSpec& w = *st.workload;
  const bool batch = w.name == "batch-dense";
  const bool serve = w.name == "serve-highway";
  const bool watch = w.name == "watch-edits";
  const std::string model_path = ModelPath(st, "traced");
  LearnAndSave(st, st.train_dir, model_path);
  const std::unique_ptr<Fixy> fixy = LoadEngine(st, model_path);
  TraceLayers(st, *fixy, model_path);

  double untraced_ops = 0.0, traced_ops = 0.0;
  TraceEngine(st, *fixy, batch ? st.seconds / 2.0 : 0.0,
              batch ? w.min_ops : 1, &untraced_ops, &traced_ops);
  double untraced_p50 = 0.0, traced_p50 = 0.0;
  TraceDaemon(st, serve ? st.seconds / 2.0 : 0.0, serve ? w.min_ops : 20,
              &untraced_p50, &traced_p50);
  TraceWatch(st, watch);

  st.Set("trace.batch_overhead_share", 1.0 - traced_ops / untraced_ops,
         "share");
  st.Set("trace.request_overhead_share", traced_p50 / untraced_p50 - 1.0,
         "share");
  char line[256];
  std::snprintf(line, sizeof(line),
                "tracing overhead: batch %.3f -> %.3f scenes/s traced, "
                "request p50 %.3f -> %.3f ms traced",
                untraced_ops, traced_ops, untraced_p50, traced_p50);
  st.notes.push_back(line);
  const std::map<std::string, double> self = st.tracer->SelfMsByLayer();
  for (const auto& [layer, ms] : self) {
    st.notes.push_back("self time " + layer + ": " + std::to_string(ms) +
                       " ms");
  }
  for (const char* layer :
       {"io", "assoc", "score", "graph", "engine", "learn", "model", "ipc",
        "watch"}) {
    const auto it = self.find(layer);
    st.Set(std::string(layer) + ".self_ms", it == self.end() ? 0.0 : it->second,
           "ms");
  }
  st.tracer->Write(st.work_dir + "/trace.json");
  st.notes.push_back("spans written to " + st.work_dir + "/trace.json");
}

// ---------------------------------------------------------------------------

const WorkloadSpec& FindWorkload(const std::string& name, bool smoke) {
  for (const WorkloadSpec& w : Workloads(smoke)) {
    if (w.name == name) return w;
  }
  Die("unknown workload '" + name +
      "' (batch-dense, serve-highway, watch-edits)");
}

/// <dir>/train: the preset at its own seed, scenes renamed apart from the
/// audit set (the watch phase puts both in one directory);
/// <dir>/audit: the preset at --seed.
int Generate(const WorkloadSpec& w, uint64_t seed, const std::string& dir) {
  scenario::ScenarioSpec spec =
      Must(scenario::PresetByName(w.preset), "preset");
  scenario::MaterializeOptions audit;
  audit.scene_count = w.audit_scenes;
  audit.seed = seed;
  Must(scenario::MaterializeScenarioDataset(spec, dir + "/audit", audit),
       "materialize " + w.preset);
  spec.name += "_train";
  scenario::MaterializeOptions train;
  train.scene_count = w.train_scenes;
  Must(scenario::MaterializeScenarioDataset(spec, dir + "/train", train),
       "materialize " + w.preset + " training set");
  return 0;
}

void PrintResult(const RunState& st) {
  for (const std::string& note : st.notes) std::printf("note: %s\n", note.c_str());
  std::string out = "{\"correct\": ";
  out += st.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(st.attempted);
  out += ", \"failed\": " + std::to_string(st.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : st.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Run(RunState& st) {
  PrintHost();
  const std::string seed = std::to_string(st.seed);
  PrintInputFingerprint(st, st.train_dir, "train", st.workload->train_scenes,
                        "preset");
  PrintInputFingerprint(st, st.data_dir, "audit", st.workload->audit_scenes,
                        seed.c_str());
  st.ledger = Must(scenario::LoadLedger(scenario::LedgerPath(st.data_dir)),
                   "load ledger");
  fs::create_directories(st.work_dir);
  const std::pair<double, double> steal_before = HostStealJiffies();
  if (st.trace) {
    RunTraced(st);
  } else {
    if (st.workload->name == "batch-dense") RunBatchDense(st);
    if (st.workload->name == "serve-highway") RunServeHighway(st);
    if (st.workload->name == "watch-edits") RunWatchEdits(st);
    st.Set("setup_s", Median(st.setup_s), "s");
    // Set-up side effects recorded per-layer values; drop them here.
    for (auto it = st.metrics.begin(); it != st.metrics.end();) {
      it = it->first.find('.') == std::string::npos ? std::next(it)
                                                    : st.metrics.erase(it);
    }
  }
  const std::pair<double, double> steal_after = HostStealJiffies();
  const double total = steal_after.second - steal_before.second;
  if (total > 0) {
    st.notes.push_back(
        "host steal during the run: " +
        std::to_string(100.0 * (steal_after.first - steal_before.first) /
                       total) +
        "% of all CPU time (time other guests held this machine's CPUs)");
  }
  PrintResult(st);
  return 0;
}

}  // namespace
}  // namespace fixy::perfbench

int main(int argc, char** argv) {
  using namespace fixy::perfbench;
  if (argc < 2) Die("usage: fixy_perfbench gen|run --workload W --seed S ...");
  const std::string mode = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("expected a --flag, got " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto need = [&flags](const std::string& key) {
    const auto it = flags.find(key);
    if (it == flags.end()) Die("missing --" + key);
    return it->second;
  };
  const bool smoke = flags.count("smoke") != 0 && flags["smoke"] == "1";
  const WorkloadSpec& workload = FindWorkload(need("workload"), smoke);
  const uint64_t seed = std::stoull(need("seed"));
  if (mode == "gen") return Generate(workload, seed, need("data"));
  if (mode == "inputs") {
    // What `gen` makes for this workload: run.py keys its input cache on it.
    std::printf("%s-%d-%d\n", workload.preset.c_str(), workload.train_scenes,
                workload.audit_scenes);
    return 0;
  }
  if (mode != "run") Die("unknown mode " + mode);
  RunState st;
  st.workload = &workload;
  st.seed = seed;
  st.seconds = std::stod(need("seconds"));
  st.trace = need("trace") == "1";
  st.smoke = smoke;
  st.data_dir = need("data") + "/audit";
  st.train_dir = need("data") + "/train";
  st.work_dir = need("work");
  st.tracer = std::make_unique<Tracer>(st.trace);
  return Run(st);
}
