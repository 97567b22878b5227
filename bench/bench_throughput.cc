// Dataset-scale ranking throughput: scenes/sec of Fixy::RankDatasetStreaming
// over an in-memory 64-scene Lyft-like dataset, swept over worker-thread
// count. Tracks the batch engine's parallel speedup (the production
// workload is ranking whole datasets, not the single 15 s scene of
// Section 8.1).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "daemon/client.h"
#include "daemon/protocol.h"
#include "daemon/server.h"
#include "io/fxb.h"
#include "io/scene_io.h"
#include "json/json.h"
#include "obs/metrics.h"
#include "obs/metrics_json.h"
#include "shard/checkpoint.h"
#include "shard/coordinator.h"
#include "stats/simd.h"
#include "workloads.h"

namespace fixy::bench {
namespace {

constexpr int kDatasetScenes = 64;

const TrainedPipeline& LyftPipeline() {
  static const TrainedPipeline* pipeline =
      new TrainedPipeline(Train(sim::LyftLikeProfile(), kLyftTrainingScenes));
  return *pipeline;
}

const Dataset& LyftDataset() {
  static const Dataset* dataset = [] {
    const sim::GeneratedDataset generated = sim::GenerateDataset(
        sim::LyftLikeProfile(), "throughput", kDatasetScenes, kValidationSeed);
    return new Dataset(generated.dataset);
  }();
  return *dataset;
}

// The Lyft dataset as a SceneSource; it lends the scenes, so ranking
// through it pays no decode.
const SceneSource& LyftSource() {
  static const DatasetSceneSource* source =
      new DatasetSceneSource(LyftDataset());
  return *source;
}

// Scenes/sec vs. thread count for each application. items_processed is
// scenes, so google-benchmark's items_per_second counter reports the
// scenes/sec throughput directly.
void RankDatasetSweep(benchmark::State& state, const std::string& app) {
  const TrainedPipeline& pipeline = LyftPipeline();
  BatchOptions batch;
  batch.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = pipeline.fixy.RankDatasetStreaming(LyftSource(), {app},
                                                     batch);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * kDatasetScenes);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_RankDatasetMissingTracks(benchmark::State& state) {
  RankDatasetSweep(state, "missing-tracks");
}
BENCHMARK(BM_RankDatasetMissingTracks)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_RankDatasetMissingObservations(benchmark::State& state) {
  RankDatasetSweep(state, "missing-obs");
}
BENCHMARK(BM_RankDatasetMissingObservations)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

void BM_RankDatasetModelErrors(benchmark::State& state) {
  RankDatasetSweep(state, "model-errors");
}
BENCHMARK(BM_RankDatasetModelErrors)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// One instrumented dataset ranking per application, merged into a single
// PipelineMetrics snapshot — the same schema fixy_cli's --metrics-json
// emits, so bench output can be diffed against CLI output directly.
Status DumpMetrics(const std::string& path) {
  const TrainedPipeline& pipeline = LyftPipeline();
  obs::MetricsCollector collector;
  const obs::MetricsScope scope(&collector);
  BatchOptions batch;
  batch.collect_metrics = true;
  for (const char* app : {"missing-tracks", "missing-obs", "model-errors"}) {
    FIXY_ASSIGN_OR_RETURN(
        const MultiAppReport report,
        pipeline.fixy.RankDatasetStreaming(LyftSource(), {app}, batch));
    collector.Merge(report.metrics);
  }
  const obs::PipelineMetrics snapshot = collector.Snapshot();
  FIXY_RETURN_IF_ERROR(obs::ValidateMetrics(snapshot));
  FIXY_RETURN_IF_ERROR(obs::SaveMetrics(snapshot, path));
  std::printf("wrote metrics to %s\n", path.c_str());
  return Status::Ok();
}

// ---- Ingestion benchmark (--ingest-json) ----
//
// Measures decode-all throughput of the two ingestion formats over the
// same 64-scene dataset: per-file JSON (DirectorySceneSource) vs the FXB
// binary cache (FxbSceneSource, mmap). "cold" includes opening the source
// (mmap + header/index parse for FXB, manifest read for JSON) plus the
// first full decode pass; "warm" is the best of three further passes on
// the already-open source. OS page cache is warm in both phases — the
// numbers isolate decode cost, not disk.

// Wall seconds to decode every scene of `source` across `threads`.
Result<double> DecodeAllSeconds(const SceneSource& source, int threads) {
  const auto start = std::chrono::steady_clock::now();
  ThreadPool pool(threads);
  std::vector<std::future<void>> futures;
  futures.reserve(source.scene_count());
  std::atomic<bool> failed{false};
  for (size_t i = 0; i < source.scene_count(); ++i) {
    futures.push_back(pool.Submit([&source, &failed, i] {
      const Result<std::shared_ptr<const Scene>> scene =
          source.DecodeScene(i);
      if (!scene.ok()) failed.store(true);
      benchmark::DoNotOptimize(scene);
    }));
  }
  for (std::future<void>& future : futures) future.get();
  if (failed.load()) return Status::Internal("a scene failed to decode");
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

struct IngestResult {
  std::string format;  // "json" | "fxb"
  std::string phase;   // "cold" | "warm"
  int threads = 0;
  double seconds = 0.0;
  double scenes_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

Status RunIngestBench(const std::string& out_path) {
  const Dataset& dataset = LyftDataset();
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fixy_bench_ingest").string();
  std::filesystem::remove_all(dir);
  FIXY_RETURN_IF_ERROR(io::SaveDataset(dataset, dir));
  FIXY_ASSIGN_OR_RETURN(const size_t cached, io::BuildFxbCache(dir));
  if (cached != dataset.scenes.size()) {
    return Status::Internal("cache scene count mismatch");
  }

  // Bytes each format reads end to end, for MB/sec.
  uint64_t json_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (EndsWith(name, ".fixy.json") || name == "manifest.json") {
      json_bytes += entry.file_size();
    }
  }
  const uint64_t fxb_bytes =
      std::filesystem::file_size(io::FxbCachePath(dir));

  constexpr int kWarmPasses = 3;
  std::vector<IngestResult> results;
  for (const int threads : {1, 4, 8}) {
    for (const bool use_fxb : {false, true}) {
      IngestResult cold;
      cold.format = use_fxb ? "fxb" : "json";
      cold.phase = "cold";
      cold.threads = threads;
      double warm_best = 0.0;
      if (use_fxb) {
        const auto start = std::chrono::steady_clock::now();
        FIXY_ASSIGN_OR_RETURN(io::FxbReader reader,
                              io::FxbReader::Open(io::FxbCachePath(dir)));
        const io::FxbSceneSource source(std::move(reader));
        FIXY_ASSIGN_OR_RETURN(const double first,
                              DecodeAllSeconds(source, threads));
        benchmark::DoNotOptimize(first);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        cold.seconds = elapsed.count();
        for (int pass = 0; pass < kWarmPasses; ++pass) {
          FIXY_ASSIGN_OR_RETURN(const double secs,
                                DecodeAllSeconds(source, threads));
          warm_best = pass == 0 ? secs : std::min(warm_best, secs);
        }
      } else {
        const auto start = std::chrono::steady_clock::now();
        FIXY_ASSIGN_OR_RETURN(io::DirectorySceneSource source,
                              io::DirectorySceneSource::Open(dir));
        FIXY_ASSIGN_OR_RETURN(const double first,
                              DecodeAllSeconds(source, threads));
        benchmark::DoNotOptimize(first);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        cold.seconds = elapsed.count();
        for (int pass = 0; pass < kWarmPasses; ++pass) {
          FIXY_ASSIGN_OR_RETURN(const double secs,
                                DecodeAllSeconds(source, threads));
          warm_best = pass == 0 ? secs : std::min(warm_best, secs);
        }
      }
      const double bytes =
          static_cast<double>(use_fxb ? fxb_bytes : json_bytes);
      const double scenes = static_cast<double>(dataset.scenes.size());
      cold.scenes_per_sec = scenes / cold.seconds;
      cold.mb_per_sec = bytes / 1e6 / cold.seconds;
      results.push_back(cold);
      IngestResult warm = cold;
      warm.phase = "warm";
      warm.seconds = warm_best;
      warm.scenes_per_sec = scenes / warm_best;
      warm.mb_per_sec = bytes / 1e6 / warm_best;
      results.push_back(warm);
    }
  }

  json::Object doc;
  doc["bench"] = "ingest";
  doc["scenes"] = static_cast<double>(dataset.scenes.size());
  doc["json_bytes"] = static_cast<double>(json_bytes);
  doc["fxb_bytes"] = static_cast<double>(fxb_bytes);
  json::Array rows;
  for (const IngestResult& r : results) {
    json::Object row;
    row["format"] = r.format;
    row["phase"] = r.phase;
    row["threads"] = static_cast<double>(r.threads);
    row["seconds"] = r.seconds;
    row["scenes_per_sec"] = r.scenes_per_sec;
    row["mb_per_sec"] = r.mb_per_sec;
    rows.push_back(std::move(row));
    std::printf("ingest %-4s %-4s threads=%d  %8.1f scenes/s  %8.1f MB/s\n",
                r.format.c_str(), r.phase.c_str(), r.threads,
                r.scenes_per_sec, r.mb_per_sec);
  }
  doc["results"] = std::move(rows);

  const std::string text = json::Write(doc, /*pretty=*/true);
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("cannot open for writing: " + out_path);
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote ingest benchmark to %s\n", out_path.c_str());
  std::filesystem::remove_all(dir);
  return Status::Ok();
}

// ---- Multi-application benchmark (--multiapp-json) ----
//
// Quantifies what the shared scene pass buys: ranking all registered
// applications in ONE RankDatasetStreaming call (decode + associate each
// scene once, every app scores the shared track views and feature-score
// cache) vs the legacy shape — one full solo pass per application. Also
// records the association accounting: track builds run per scene in the
// shared pass, per scene *per app* across the legacy passes.

// Wall seconds of one multi-app dataset ranking over `apps`.
Result<double> RankSeconds(const Fixy& fixy, const SceneSource& source,
                           const std::vector<std::string>& apps,
                           const BatchOptions& batch) {
  const auto start = std::chrono::steady_clock::now();
  FIXY_ASSIGN_OR_RETURN(const MultiAppReport report,
                        fixy.RankDatasetStreaming(source, apps, batch));
  benchmark::DoNotOptimize(report);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

Status RunMultiAppBench(const std::string& out_path) {
  const TrainedPipeline& pipeline = LyftPipeline();
  const Dataset& dataset = LyftDataset();
  const std::vector<std::string> apps = pipeline.fixy.applications().names();
  const double scenes = static_cast<double>(dataset.scenes.size());

  // Association accounting (counters are thread-invariant, so one serial
  // instrumented run of each shape suffices).
  BatchOptions counted;
  counted.num_threads = 1;
  counted.collect_metrics = true;
  FIXY_ASSIGN_OR_RETURN(
      const MultiAppReport shared_counted,
      pipeline.fixy.RankDatasetStreaming(LyftSource(), apps, counted));
  const int64_t shared_builds =
      shared_counted.metrics.counters.at("rank.track_builds");
  int64_t legacy_builds = 0;
  for (const std::string& app : apps) {
    FIXY_ASSIGN_OR_RETURN(
        const MultiAppReport solo,
        pipeline.fixy.RankDatasetStreaming(LyftSource(), {app}, counted));
    legacy_builds += solo.metrics.counters.at("rank.track_builds");
  }

  json::Array rows;
  for (const int threads : {1, 4, 8}) {
    BatchOptions batch;
    batch.num_threads = threads;
    FIXY_ASSIGN_OR_RETURN(const double single,
                          RankSeconds(pipeline.fixy, LyftSource(),
                                      {apps.front()}, batch));
    FIXY_ASSIGN_OR_RETURN(
        const double shared,
        RankSeconds(pipeline.fixy, LyftSource(), apps, batch));
    double legacy = 0.0;
    for (const std::string& app : apps) {
      FIXY_ASSIGN_OR_RETURN(
          const double solo,
          RankSeconds(pipeline.fixy, LyftSource(), {app}, batch));
      legacy += solo;
    }
    const struct {
      const char* mode;
      size_t app_count;
      double seconds;
    } shapes[] = {{"single", 1, single},
                  {"shared", apps.size(), shared},
                  {"legacy", apps.size(), legacy}};
    for (const auto& shape : shapes) {
      json::Object row;
      row["mode"] = shape.mode;
      row["apps"] = static_cast<double>(shape.app_count);
      row["threads"] = static_cast<double>(threads);
      row["seconds"] = shape.seconds;
      row["scenes_per_sec"] = scenes / shape.seconds;
      rows.push_back(std::move(row));
      std::printf(
          "multiapp %-6s apps=%zu threads=%d  %7.2f s  %7.1f scenes/s\n",
          shape.mode, shape.app_count, threads, shape.seconds,
          scenes / shape.seconds);
    }
    std::printf("multiapp shared-vs-legacy speedup at threads=%d: %.2fx\n",
                threads, legacy / shared);
  }

  json::Object doc;
  doc["bench"] = "multiapp";
  doc["scenes"] = scenes;
  json::Array app_names;
  for (const std::string& app : apps) app_names.push_back(app);
  doc["apps"] = std::move(app_names);
  doc["track_builds_shared"] = static_cast<double>(shared_builds);
  doc["track_builds_legacy"] = static_cast<double>(legacy_builds);
  doc["results"] = std::move(rows);

  const std::string text = json::Write(doc, /*pretty=*/true);
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    return Status::IoError("cannot open for writing: " + out_path);
  }
  std::fwrite(text.data(), 1, text.size(), out);
  std::fputc('\n', out);
  std::fclose(out);
  std::printf("wrote multiapp benchmark to %s\n", out_path.c_str());
  return Status::Ok();
}

// ---- Hot-path benchmark + perf gate (--hotpath-json, --hotpath-baseline) --
//
// Measures end-to-end rank throughput (the KDE/factor-graph hot path that
// DESIGN.md §11 optimizes) in two shapes — "single" (one application) and
// "shared" (all registered applications from one pass) — at 1/4/8 threads,
// best of kHotpathReps runs. The committed BENCH_hotpath.json is the
// reference an optimized tree must not regress from: --hotpath-baseline
// re-measures and fails (non-zero exit) when any row's scenes/sec falls
// below tolerance * committed, which tools/check.sh perf runs in CI
// fashion.

// Pre-optimization throughput (scenes/sec, threads=1) measured on this
// dataset at the commit immediately before the SIMD/SoA/pruning work,
// embedded so the before/after speedup survives in the committed JSON
// without checking out the old revision.
constexpr double kHotpathBeforeSingleT1 = 8.7596;
constexpr double kHotpathBeforeSharedT1 = 5.9283;

constexpr int kHotpathReps = 2;

// Relative tolerance band for the gate: a fresh measurement below
// tolerance * committed scenes/sec is a regression. Overridable via
// FIXY_PERF_TOLERANCE for noisier machines.
double HotpathTolerance() {
  if (const char* env = std::getenv("FIXY_PERF_TOLERANCE")) {
    const double parsed = std::atof(env);
    if (parsed > 0.0 && parsed <= 1.0) return parsed;
    std::fprintf(stderr,
                 "warning: ignoring FIXY_PERF_TOLERANCE=%s (want (0, 1])\n",
                 env);
  }
  return 0.75;
}

Result<json::Object> MeasureHotpath() {
  const TrainedPipeline& pipeline = LyftPipeline();
  const Dataset& dataset = LyftDataset();
  const std::vector<std::string> apps = pipeline.fixy.applications().names();
  const double scenes = static_cast<double>(dataset.scenes.size());

  json::Array rows;
  double single_t1 = 0.0;
  double shared_t1 = 0.0;
  for (const int threads : {1, 4, 8}) {
    BatchOptions batch;
    batch.num_threads = threads;
    double single = 0.0;
    double shared = 0.0;
    for (int rep = 0; rep < kHotpathReps; ++rep) {
      FIXY_ASSIGN_OR_RETURN(const double s,
                            RankSeconds(pipeline.fixy, LyftSource(),
                                        {apps.front()}, batch));
      single = rep == 0 ? s : std::min(single, s);
      FIXY_ASSIGN_OR_RETURN(
          const double a,
          RankSeconds(pipeline.fixy, LyftSource(), apps, batch));
      shared = rep == 0 ? a : std::min(shared, a);
    }
    const struct {
      const char* mode;
      double seconds;
    } shapes[] = {{"single", single}, {"shared", shared}};
    for (const auto& shape : shapes) {
      json::Object row;
      row["mode"] = shape.mode;
      row["threads"] = static_cast<double>(threads);
      row["seconds"] = shape.seconds;
      row["scenes_per_sec"] = scenes / shape.seconds;
      rows.push_back(std::move(row));
      std::printf("hotpath %-6s threads=%d  %7.2f s  %7.1f scenes/s\n",
                  shape.mode, threads, shape.seconds, scenes / shape.seconds);
    }
    if (threads == 1) {
      single_t1 = scenes / single;
      shared_t1 = scenes / shared;
    }
  }

  json::Object doc;
  doc["bench"] = "hotpath";
  doc["scenes"] = scenes;
  doc["kernel"] = stats::simd::KernelName(stats::simd::ActiveKernel());
  json::Object before;
  before["single_t1_scenes_per_sec"] = kHotpathBeforeSingleT1;
  before["shared_t1_scenes_per_sec"] = kHotpathBeforeSharedT1;
  doc["before"] = std::move(before);
  doc["speedup_single_t1"] = single_t1 / kHotpathBeforeSingleT1;
  doc["speedup_shared_t1"] = shared_t1 / kHotpathBeforeSharedT1;
  doc["results"] = std::move(rows);
  std::printf("hotpath speedup vs before: single %.2fx, shared %.2fx\n",
              single_t1 / kHotpathBeforeSingleT1,
              shared_t1 / kHotpathBeforeSharedT1);
  return doc;
}

Status CheckHotpathBaseline(const json::Object& fresh,
                            const std::string& baseline_path) {
  std::string text;
  FIXY_RETURN_IF_ERROR(io::ReadFileInto(baseline_path, &text));
  FIXY_ASSIGN_OR_RETURN(const json::Value baseline, json::Parse(text));
  const json::Value* rows = baseline.Find("results");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument(baseline_path +
                                   ": no results array (not a hotpath file?)");
  }
  const double tolerance = HotpathTolerance();
  const json::Array& fresh_rows = fresh.at("results").AsArray();
  size_t compared = 0;
  for (const json::Value& row : rows->AsArray()) {
    FIXY_ASSIGN_OR_RETURN(const std::string mode, row.GetString("mode"));
    FIXY_ASSIGN_OR_RETURN(const double threads, row.GetDouble("threads"));
    FIXY_ASSIGN_OR_RETURN(const double committed,
                          row.GetDouble("scenes_per_sec"));
    const json::Value* match = nullptr;
    for (const json::Value& candidate : fresh_rows) {
      if (candidate.GetString("mode").value_or("") == mode &&
          candidate.GetDouble("threads").value_or(-1.0) == threads) {
        match = &candidate;
        break;
      }
    }
    if (match == nullptr) {
      return Status::Internal(StrFormat(
          "perf gate: committed row (%s, threads=%g) missing from the "
          "fresh measurement",
          mode.c_str(), threads));
    }
    FIXY_ASSIGN_OR_RETURN(const double measured,
                          match->GetDouble("scenes_per_sec"));
    const double floor = tolerance * committed;
    const bool ok = measured >= floor;
    std::printf("perf gate %-6s threads=%g  %7.1f scenes/s vs committed "
                "%7.1f (floor %7.1f)  %s\n",
                mode.c_str(), threads, measured, committed, floor,
                ok ? "OK" : "REGRESSION");
    if (!ok) {
      return Status::Internal(StrFormat(
          "perf regression: %s at threads=%g ran at %.1f scenes/s, below "
          "%.0f%% of the committed %.1f (see BENCH_hotpath.json; if the "
          "slowdown is intentional, re-baseline with --hotpath-json)",
          mode.c_str(), threads, measured, tolerance * 100.0, committed));
    }
    ++compared;
  }
  if (compared == 0) {
    return Status::InvalidArgument(baseline_path + ": results array is empty");
  }
  std::printf("perf gate OK: %zu rows within %.0f%% of committed\n", compared,
              tolerance * 100.0);
  return Status::Ok();
}

Status RunHotpathBench(const std::string& out_path,
                       const std::string& baseline_path) {
  FIXY_ASSIGN_OR_RETURN(json::Object doc, MeasureHotpath());
  if (!out_path.empty()) {
    const std::string text = json::Write(doc, /*pretty=*/true);
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      return Status::IoError("cannot open for writing: " + out_path);
    }
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote hotpath benchmark to %s\n", out_path.c_str());
  }
  if (!baseline_path.empty()) {
    FIXY_RETURN_IF_ERROR(CheckHotpathBaseline(doc, baseline_path));
  }
  return Status::Ok();
}

// ---- Sharded ranking benchmark + perf gate (--shard-json, --shard-baseline) --
//
// Measures the multi-process sharded rank pipeline (DESIGN.md §12) over
// the same 64-scene dataset: wall seconds of RankDatasetSharded at 1/2/4
// workers, "cold" (empty checkpoint directory — every shard forked,
// ranked, checkpointed) vs "resumed" (--resume over a complete checkpoint
// directory — every shard reused, no worker forked). The cold rows
// quantify process-orchestration overhead vs the in-process hotpath
// numbers; the resumed rows bound the fixed cost of a no-op resume. The
// gate (--shard-baseline) compares cold rows only — resumed runs are
// mostly constant-time checkpoint decode and too small to band reliably.
// The worker binary defaults to the build-time fixy_cli path; override
// with --shard-cli when benching an installed binary.

constexpr int kShardWorkerCounts[] = {1, 2, 4};

Result<json::Object> MeasureShard(const std::string& cli_path) {
  const TrainedPipeline& pipeline = LyftPipeline();
  const Dataset& dataset = LyftDataset();
  const double scenes = static_cast<double>(dataset.scenes.size());
  const std::vector<std::string> apps = {"missing-tracks", "missing-obs",
                                         "model-errors"};

  const std::string work =
      (std::filesystem::temp_directory_path() / "fixy_bench_shard").string();
  std::filesystem::remove_all(work);
  const std::string data_dir = work + "/ds";
  const std::string model_path = work + "/model.fxm";
  FIXY_RETURN_IF_ERROR(io::SaveDataset(dataset, data_dir));
  FIXY_ASSIGN_OR_RETURN(const size_t cached, io::BuildFxbCache(data_dir));
  if (cached != dataset.scenes.size()) {
    return Status::Internal("cache scene count mismatch");
  }
  FIXY_RETURN_IF_ERROR(pipeline.fixy.SaveModel(model_path));

  json::Array rows;
  std::string reference_bytes;
  for (const int workers : kShardWorkerCounts) {
    shard::ShardOptions options;
    options.workers = workers;
    options.worker_binary = cli_path;
    options.checkpoint_dir = work + "/ckpt_w" + std::to_string(workers);

    struct {
      const char* phase;
      bool resume;
    } phases[] = {{"cold", false}, {"resumed", true}};
    for (const auto& phase : phases) {
      options.resume = phase.resume;
      const auto start = std::chrono::steady_clock::now();
      FIXY_ASSIGN_OR_RETURN(
          const shard::ShardRunReport run,
          shard::RankDatasetSharded(data_dir, model_path, apps, options));
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (run.shards_quarantined != 0) {
        return Status::Internal(
            StrFormat("shard bench: %zu shards quarantined at workers=%d",
                      run.shards_quarantined, workers));
      }
      // Determinism backstop: every run — any worker count, cold or
      // resumed — must merge to the same canonical report bytes.
      const std::string bytes = shard::EncodeMultiAppReport(run.merged);
      if (reference_bytes.empty()) {
        reference_bytes = bytes;
      } else if (bytes != reference_bytes) {
        return Status::Internal(StrFormat(
            "shard bench: merged report at workers=%d (%s) differs from "
            "the first run — determinism broken",
            workers, phase.phase));
      }
      json::Object row;
      row["phase"] = phase.phase;
      row["workers"] = static_cast<double>(workers);
      row["seconds"] = elapsed.count();
      row["scenes_per_sec"] = scenes / elapsed.count();
      row["checkpoints_reused"] = static_cast<double>(run.checkpoints_reused);
      rows.push_back(std::move(row));
      std::printf("shard %-7s workers=%d  %7.2f s  %7.1f scenes/s  "
                  "(%zu checkpoints reused)\n",
                  phase.phase, workers, elapsed.count(),
                  scenes / elapsed.count(), run.checkpoints_reused);
    }
  }

  json::Object doc;
  doc["bench"] = "shard";
  doc["scenes"] = scenes;
  json::Array app_names;
  for (const std::string& app : apps) app_names.push_back(app);
  doc["apps"] = std::move(app_names);
  doc["results"] = std::move(rows);
  std::filesystem::remove_all(work);
  return doc;
}

Status CheckShardBaseline(const json::Object& fresh,
                          const std::string& baseline_path) {
  std::string text;
  FIXY_RETURN_IF_ERROR(io::ReadFileInto(baseline_path, &text));
  FIXY_ASSIGN_OR_RETURN(const json::Value baseline, json::Parse(text));
  const json::Value* rows = baseline.Find("results");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument(baseline_path +
                                   ": no results array (not a shard file?)");
  }
  const double tolerance = HotpathTolerance();
  const json::Array& fresh_rows = fresh.at("results").AsArray();
  size_t compared = 0;
  for (const json::Value& row : rows->AsArray()) {
    FIXY_ASSIGN_OR_RETURN(const std::string phase, row.GetString("phase"));
    if (phase != "cold") continue;  // resumed rows are too small to band
    FIXY_ASSIGN_OR_RETURN(const double workers, row.GetDouble("workers"));
    FIXY_ASSIGN_OR_RETURN(const double committed,
                          row.GetDouble("scenes_per_sec"));
    const json::Value* match = nullptr;
    for (const json::Value& candidate : fresh_rows) {
      if (candidate.GetString("phase").value_or("") == phase &&
          candidate.GetDouble("workers").value_or(-1.0) == workers) {
        match = &candidate;
        break;
      }
    }
    if (match == nullptr) {
      return Status::Internal(StrFormat(
          "shard perf gate: committed row (cold, workers=%g) missing from "
          "the fresh measurement",
          workers));
    }
    FIXY_ASSIGN_OR_RETURN(const double measured,
                          match->GetDouble("scenes_per_sec"));
    const double floor = tolerance * committed;
    const bool ok = measured >= floor;
    std::printf("shard gate cold workers=%g  %7.1f scenes/s vs committed "
                "%7.1f (floor %7.1f)  %s\n",
                workers, measured, committed, floor, ok ? "OK" : "REGRESSION");
    if (!ok) {
      return Status::Internal(StrFormat(
          "shard perf regression: cold workers=%g ran at %.1f scenes/s, "
          "below %.0f%% of the committed %.1f (see BENCH_shard.json; if the "
          "slowdown is intentional, re-baseline with --shard-json)",
          workers, measured, tolerance * 100.0, committed));
    }
    ++compared;
  }
  if (compared == 0) {
    return Status::InvalidArgument(baseline_path + ": no cold rows");
  }
  std::printf("shard perf gate OK: %zu cold rows within %.0f%% of "
              "committed\n",
              compared, tolerance * 100.0);
  return Status::Ok();
}

Status RunShardBench(const std::string& out_path,
                     const std::string& baseline_path,
                     const std::string& cli_override) {
  std::string cli = cli_override;
#ifdef FIXY_CLI_PATH
  if (cli.empty()) cli = FIXY_CLI_PATH;
#endif
  if (cli.empty()) {
    return Status::InvalidArgument(
        "--shard-json/--shard-baseline need a worker binary: pass "
        "--shard-cli <path-to-fixy_cli>");
  }
  FIXY_ASSIGN_OR_RETURN(json::Object doc, MeasureShard(cli));
  if (!out_path.empty()) {
    const std::string text = json::Write(doc, /*pretty=*/true);
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      return Status::IoError("cannot open for writing: " + out_path);
    }
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote shard benchmark to %s\n", out_path.c_str());
  }
  if (!baseline_path.empty()) {
    FIXY_RETURN_IF_ERROR(CheckShardBaseline(doc, baseline_path));
  }
  return Status::Ok();
}

// ---- Daemon benchmark + perf gate (--daemon-json, --daemon-baseline) --
//
// Measures what fixyd exists for: the latency of one single-scene rank
// request, cold (a fresh fixy_cli process per request — model load,
// registry build, cache open, rank, exit) vs resident (one FixydServer
// holding all of that across requests, queried over its unix socket).
// Resident latency is swept over 1/4/8 concurrent clients, each issuing
// sequential requests; p50/p99 are computed over the pooled per-request
// latencies. The headline number is speedup_p50: cold p50 over resident
// p50 at one client — the acceptance floor for the daemon is 10x. The
// gate (--daemon-baseline) bands resident p50 latency per client count
// (lower is better, so the comparison is inverted relative to the
// throughput gates).

constexpr int kDaemonClientCounts[] = {1, 4, 8};
constexpr int kDaemonRequestsPerClient = 25;
constexpr int kDaemonColdRuns = 5;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

Result<json::Object> MeasureDaemon(const std::string& cli_path) {
  const TrainedPipeline& pipeline = LyftPipeline();

  const std::string work =
      (std::filesystem::temp_directory_path() / "fixy_bench_daemon").string();
  std::filesystem::remove_all(work);
  const std::string data_dir = work + "/ds";
  const std::string model_path = work + "/model.fxm";
  // A one-scene dataset, kept small: cold and resident runs rank the
  // exact same work, so with the rank itself cheap the latency gap
  // isolates what the daemon amortizes — process start, model load,
  // registry build, and cache open.
  sim::SimProfile profile = sim::LyftLikeProfile();
  profile.world.duration_seconds = 2.0;
  profile.world.mean_object_count = 6.0;
  const sim::GeneratedDataset generated =
      sim::GenerateDataset(profile, "daemon_bench", 1, kValidationSeed);
  FIXY_RETURN_IF_ERROR(io::SaveDataset(generated.dataset, data_dir));
  FIXY_ASSIGN_OR_RETURN(const size_t cached, io::BuildFxbCache(data_dir));
  if (cached != 1) return Status::Internal("cache scene count mismatch");
  FIXY_RETURN_IF_ERROR(pipeline.fixy.SaveModel(model_path));

  // Cold: one full CLI process per request.
  const std::string cold_command =
      cli_path + " rank --data " + data_dir + " --model " + model_path +
      " --app model-errors --top 10 --threads 1 > /dev/null 2>&1";
  std::vector<double> cold_ms;
  for (int run = 0; run < kDaemonColdRuns; ++run) {
    const auto start = std::chrono::steady_clock::now();
    if (std::system(cold_command.c_str()) != 0) {
      return Status::Internal("daemon bench: cold CLI rank failed: " +
                              cold_command);
    }
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    cold_ms.push_back(elapsed.count());
  }
  const double cold_p50 = Percentile(cold_ms, 0.5);
  std::printf("daemon cold CLI      %8.2f ms p50 (%d runs)\n", cold_p50,
              kDaemonColdRuns);

  // Resident: one daemon, swept client counts.
  daemon::ServerOptions options;
  options.socket_path = work + "/fixyd.sock";
  options.model_path = model_path;
  options.worker_threads = 8;
  options.rank_threads = 1;
  FIXY_ASSIGN_OR_RETURN(std::unique_ptr<daemon::FixydServer> server,
                        daemon::FixydServer::Create(std::move(options)));
  std::thread serve_thread([&server] { (void)server->Serve(); });

  json::Array rows;
  double resident_single_p50 = 0.0;
  Status worker_error;
  std::mutex worker_mu;
  for (const int clients : kDaemonClientCounts) {
    std::vector<double> latencies_ms;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto wall_start = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        Result<daemon::FixydClient> client =
            daemon::FixydClient::Connect(server->socket_path());
        if (!client.ok()) {
          const std::lock_guard<std::mutex> lock(worker_mu);
          worker_error = client.status();
          return;
        }
        std::vector<double> mine;
        mine.reserve(kDaemonRequestsPerClient);
        for (int r = 0; r < kDaemonRequestsPerClient; ++r) {
          daemon::Request request;
          request.kind = daemon::RequestKind::kRank;
          request.data_dir = data_dir;
          request.scene_index = 0;
          request.apps = {"model-errors"};
          request.top = 10;
          const auto start = std::chrono::steady_clock::now();
          const Result<daemon::Response> response = client->Call(request);
          const std::chrono::duration<double, std::milli> elapsed =
              std::chrono::steady_clock::now() - start;
          const std::lock_guard<std::mutex> lock(worker_mu);
          if (!response.ok()) {
            worker_error = response.status();
            return;
          }
          if (!response->status.ok()) {
            worker_error = response->status;
            return;
          }
          mine.push_back(elapsed.count());
        }
        const std::lock_guard<std::mutex> lock(worker_mu);
        latencies_ms.insert(latencies_ms.end(), mine.begin(), mine.end());
      });
    }
    for (std::thread& thread : threads) thread.join();
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    if (!worker_error.ok()) {
      server->RequestStop();
      serve_thread.join();
      return worker_error;
    }
    const double p50 = Percentile(latencies_ms, 0.5);
    const double p99 = Percentile(latencies_ms, 0.99);
    if (clients == 1) resident_single_p50 = p50;
    json::Object row;
    row["clients"] = static_cast<double>(clients);
    row["requests"] = static_cast<double>(latencies_ms.size());
    row["p50_ms"] = p50;
    row["p99_ms"] = p99;
    row["requests_per_sec"] =
        static_cast<double>(latencies_ms.size()) / wall.count();
    rows.push_back(std::move(row));
    std::printf("daemon resident c=%d  %8.2f ms p50  %8.2f ms p99  "
                "%7.1f req/s\n",
                clients, p50, p99,
                static_cast<double>(latencies_ms.size()) / wall.count());
  }
  server->RequestStop();
  serve_thread.join();

  const double speedup =
      resident_single_p50 > 0.0 ? cold_p50 / resident_single_p50 : 0.0;
  std::printf("daemon speedup_p50   %8.1fx (cold %.2f ms / resident "
              "%.2f ms)\n",
              speedup, cold_p50, resident_single_p50);

  json::Object doc;
  doc["bench"] = "daemon";
  json::Object cold;
  cold["runs"] = static_cast<double>(kDaemonColdRuns);
  cold["p50_ms"] = cold_p50;
  doc["cold_cli"] = std::move(cold);
  doc["results"] = std::move(rows);
  doc["speedup_p50"] = speedup;
  std::filesystem::remove_all(work);
  return doc;
}

Status CheckDaemonBaseline(const json::Object& fresh,
                           const std::string& baseline_path) {
  std::string text;
  FIXY_RETURN_IF_ERROR(io::ReadFileInto(baseline_path, &text));
  FIXY_ASSIGN_OR_RETURN(const json::Value baseline, json::Parse(text));
  const json::Value* rows = baseline.Find("results");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument(baseline_path +
                                   ": no results array (not a daemon file?)");
  }
  const double tolerance = HotpathTolerance();
  const json::Array& fresh_rows = fresh.at("results").AsArray();
  size_t compared = 0;
  for (const json::Value& row : rows->AsArray()) {
    FIXY_ASSIGN_OR_RETURN(const double clients, row.GetDouble("clients"));
    FIXY_ASSIGN_OR_RETURN(const double committed, row.GetDouble("p50_ms"));
    const json::Value* match = nullptr;
    for (const json::Value& candidate : fresh_rows) {
      if (candidate.GetDouble("clients").value_or(-1.0) == clients) {
        match = &candidate;
        break;
      }
    }
    if (match == nullptr) {
      return Status::Internal(StrFormat(
          "daemon perf gate: committed row (clients=%g) missing from the "
          "fresh measurement",
          clients));
    }
    FIXY_ASSIGN_OR_RETURN(const double measured, match->GetDouble("p50_ms"));
    // Latency: lower is better, so the band inverts — measured may be at
    // most committed / tolerance.
    const double ceiling = committed / tolerance;
    const bool ok = measured <= ceiling;
    std::printf("daemon gate clients=%g  %8.2f ms p50 vs committed %8.2f "
                "(ceiling %8.2f)  %s\n",
                clients, measured, committed, ceiling,
                ok ? "OK" : "REGRESSION");
    if (!ok) {
      return Status::Internal(StrFormat(
          "daemon perf regression: p50 at clients=%g is %.2f ms, above "
          "1/%.0f%% of the committed %.2f ms (see BENCH_daemon.json; if "
          "the slowdown is intentional, re-baseline with --daemon-json)",
          clients, measured, tolerance * 100.0, committed));
    }
    ++compared;
  }
  if (compared == 0) {
    return Status::InvalidArgument(baseline_path + ": no result rows");
  }
  std::printf("daemon perf gate OK: %zu rows within band of committed\n",
              compared);
  return Status::Ok();
}

Status RunDaemonBench(const std::string& out_path,
                      const std::string& baseline_path,
                      const std::string& cli_override) {
  std::string cli = cli_override;
#ifdef FIXY_CLI_PATH
  if (cli.empty()) cli = FIXY_CLI_PATH;
#endif
  if (cli.empty()) {
    return Status::InvalidArgument(
        "--daemon-json/--daemon-baseline need the CLI binary for the cold "
        "runs: pass --shard-cli <path-to-fixy_cli>");
  }
  FIXY_ASSIGN_OR_RETURN(json::Object doc, MeasureDaemon(cli));
  if (!out_path.empty()) {
    const std::string text = json::Write(doc, /*pretty=*/true);
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      return Status::IoError("cannot open for writing: " + out_path);
    }
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote daemon benchmark to %s\n", out_path.c_str());
  }
  if (!baseline_path.empty()) {
    FIXY_RETURN_IF_ERROR(CheckDaemonBaseline(doc, baseline_path));
  }
  return Status::Ok();
}

// ---- Incremental ingestion benchmark + perf gate ----
// (--incremental-json, --incremental-baseline)
//
// The tentpole contract: after one scene of a kIncrementalScenes-scene
// dataset changes, UpdateFxbCache must cost roughly one scene (not a full
// re-encode) and LearnIncremental must fold the delta without refitting
// the whole training set. Measured as best-of-kIncrementalReps speedups:
//   update_speedup = full BuildFxbCache time / 1-scene UpdateFxbCache time
//   fold_speedup   = full Learn time         / 1-scene LearnIncremental time
// The gate enforces both the committed baseline (scaled by
// FIXY_PERF_TOLERANCE) and the absolute floors from the acceptance
// criteria: update >= 10x, fold >= 5x.
constexpr int kIncrementalScenes = 500;
constexpr int kIncrementalReps = 3;
constexpr double kUpdateSpeedupFloor = 10.0;
constexpr double kFoldSpeedupFloor = 5.0;

Result<json::Object> MeasureIncremental() {
  const std::string work =
      (std::filesystem::temp_directory_path() /
       ("fixy_bench_incremental_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(work);
  const sim::GeneratedDataset generated =
      sim::GenerateDataset(sim::LyftLikeProfile(), "inc_bench",
                           kIncrementalScenes, kValidationSeed);
  const Dataset& dataset = generated.dataset;
  FIXY_RETURN_IF_ERROR(io::SaveDataset(dataset, work));

  // Two interchangeable versions of scene 0: alternating between them
  // makes the cache stale by exactly one scene before every update rep.
  Scene edited = sim::GenerateDataset(sim::LyftLikeProfile(), "inc_bench",
                                      1, kValidationSeed + 1)
                     .dataset.scenes.front();
  edited.set_name(dataset.scenes.front().name());
  const std::string scene0_path =
      work + "/" + dataset.scenes.front().name() + ".fixy.json";

  const auto seconds_of = [](const auto& fn) -> Result<double> {
    const auto start = std::chrono::steady_clock::now();
    FIXY_RETURN_IF_ERROR(fn());
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count();
  };

  double build_s = 0.0;
  double update_s = 0.0;
  for (int rep = 0; rep < kIncrementalReps; ++rep) {
    std::filesystem::remove(io::FxbCachePath(work));
    FIXY_ASSIGN_OR_RETURN(const double full, seconds_of([&] {
                            return io::BuildFxbCache(work).status();
                          }));
    build_s = rep == 0 ? full : std::min(build_s, full);
    // One scene changes; the update must re-encode only that scene.
    const Scene& next = rep % 2 == 0 ? edited : dataset.scenes.front();
    FIXY_RETURN_IF_ERROR(io::SaveScene(next, scene0_path));
    FIXY_ASSIGN_OR_RETURN(const double incremental, seconds_of([&] {
                            return io::UpdateFxbCache(work).status();
                          }));
    update_s = rep == 0 ? incremental : std::min(update_s, incremental);
  }

  // Learning: full refit vs folding a one-scene delta into learned state.
  Dataset delta;
  delta.name = dataset.name;
  delta.scenes.push_back(edited);
  double refit_s = 0.0;
  double fold_s = 0.0;
  for (int rep = 0; rep < kIncrementalReps; ++rep) {
    Fixy engine;
    FIXY_ASSIGN_OR_RETURN(const double full, seconds_of([&] {
                            return engine.Learn(dataset);
                          }));
    refit_s = rep == 0 ? full : std::min(refit_s, full);
    FIXY_ASSIGN_OR_RETURN(const double incremental, seconds_of([&] {
                            return engine.LearnIncremental(delta);
                          }));
    fold_s = rep == 0 ? incremental : std::min(fold_s, incremental);
  }
  std::filesystem::remove_all(work);

  const double update_speedup = update_s > 0.0 ? build_s / update_s : 0.0;
  const double fold_speedup = fold_s > 0.0 ? refit_s / fold_s : 0.0;
  std::printf("incremental cache  build %8.3f s  1-scene update %8.4f s  "
              "%6.1fx\n",
              build_s, update_s, update_speedup);
  std::printf("incremental learn  refit %8.3f s  1-scene fold   %8.4f s  "
              "%6.1fx\n",
              refit_s, fold_s, fold_speedup);

  json::Object doc;
  doc["bench"] = "incremental";
  doc["scenes"] = static_cast<double>(kIncrementalScenes);
  doc["reps"] = static_cast<double>(kIncrementalReps);
  doc["build_s"] = build_s;
  doc["update_s"] = update_s;
  doc["update_speedup"] = update_speedup;
  doc["refit_s"] = refit_s;
  doc["fold_s"] = fold_s;
  doc["fold_speedup"] = fold_speedup;
  return doc;
}

Status CheckIncrementalBaseline(const json::Object& fresh,
                                const std::string& baseline_path) {
  std::string text;
  FIXY_RETURN_IF_ERROR(io::ReadFileInto(baseline_path, &text));
  FIXY_ASSIGN_OR_RETURN(const json::Value baseline, json::Parse(text));
  const double tolerance = HotpathTolerance();
  size_t compared = 0;
  const struct {
    const char* key;
    double floor;
  } gates[] = {{"update_speedup", kUpdateSpeedupFloor},
               {"fold_speedup", kFoldSpeedupFloor}};
  for (const auto& gate : gates) {
    const json::Value* committed_value = baseline.Find(gate.key);
    if (committed_value == nullptr || !committed_value->is_number()) {
      return Status::InvalidArgument(
          StrFormat("%s: no %s (not an incremental file?)",
                    baseline_path.c_str(), gate.key));
    }
    const double committed = committed_value->AsDouble();
    const double measured = fresh.at(gate.key).AsDouble();
    // Speedups: higher is better. The measurement must clear both the
    // committed baseline (within tolerance) and the absolute floor the
    // incremental design promises.
    const double required =
        std::max(committed * tolerance, gate.floor * tolerance);
    const bool ok = measured >= required;
    std::printf("incremental gate %-14s  %6.1fx vs committed %6.1fx "
                "(required %6.1fx)  %s\n",
                gate.key, measured, committed, required,
                ok ? "OK" : "REGRESSION");
    if (!ok) {
      return Status::Internal(StrFormat(
          "incremental perf regression: %s is %.1fx, below %.1fx (see "
          "BENCH_incremental.json; if the slowdown is intentional, "
          "re-baseline with --incremental-json)",
          gate.key, measured, required));
    }
    ++compared;
  }
  std::printf("incremental perf gate OK: %zu speedups within band\n",
              compared);
  return Status::Ok();
}

Status RunIncrementalBench(const std::string& out_path,
                           const std::string& baseline_path) {
  FIXY_ASSIGN_OR_RETURN(json::Object doc, MeasureIncremental());
  if (!out_path.empty()) {
    const std::string text = json::Write(doc, /*pretty=*/true);
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      return Status::IoError("cannot open for writing: " + out_path);
    }
    std::fwrite(text.data(), 1, text.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
    std::printf("wrote incremental benchmark to %s\n", out_path.c_str());
  }
  if (!baseline_path.empty()) {
    FIXY_RETURN_IF_ERROR(CheckIncrementalBaseline(doc, baseline_path));
  }
  return Status::Ok();
}

}  // namespace
}  // namespace fixy::bench

// BENCHMARK_MAIN plus --metrics-json, --ingest-json, --multiapp-json,
// --hotpath-json/--hotpath-baseline, --shard-json/--shard-baseline/
// --shard-cli, --daemon-json/--daemon-baseline, and --incremental-json/
// --incremental-baseline flags, peeled from argv before google-benchmark
// sees them (it rejects flags it does not know).
int main(int argc, char** argv) {
  std::string metrics_path;
  std::string ingest_path;
  std::string multiapp_path;
  std::string hotpath_path;
  std::string hotpath_baseline;
  std::string shard_path;
  std::string shard_baseline;
  std::string shard_cli;
  std::string daemon_path;
  std::string daemon_baseline;
  std::string incremental_path;
  std::string incremental_baseline;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      metrics_path = arg + 15;
      continue;
    }
    if (std::strcmp(arg, "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--ingest-json=", 14) == 0) {
      ingest_path = arg + 14;
      continue;
    }
    if (std::strcmp(arg, "--ingest-json") == 0 && i + 1 < argc) {
      ingest_path = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--multiapp-json=", 16) == 0) {
      multiapp_path = arg + 16;
      continue;
    }
    if (std::strcmp(arg, "--multiapp-json") == 0 && i + 1 < argc) {
      multiapp_path = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--hotpath-json=", 15) == 0) {
      hotpath_path = arg + 15;
      continue;
    }
    if (std::strcmp(arg, "--hotpath-json") == 0 && i + 1 < argc) {
      hotpath_path = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--hotpath-baseline=", 19) == 0) {
      hotpath_baseline = arg + 19;
      continue;
    }
    if (std::strcmp(arg, "--hotpath-baseline") == 0 && i + 1 < argc) {
      hotpath_baseline = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--shard-json=", 13) == 0) {
      shard_path = arg + 13;
      continue;
    }
    if (std::strcmp(arg, "--shard-json") == 0 && i + 1 < argc) {
      shard_path = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--shard-baseline=", 17) == 0) {
      shard_baseline = arg + 17;
      continue;
    }
    if (std::strcmp(arg, "--shard-baseline") == 0 && i + 1 < argc) {
      shard_baseline = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--shard-cli=", 12) == 0) {
      shard_cli = arg + 12;
      continue;
    }
    if (std::strcmp(arg, "--shard-cli") == 0 && i + 1 < argc) {
      shard_cli = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--daemon-json=", 14) == 0) {
      daemon_path = arg + 14;
      continue;
    }
    if (std::strcmp(arg, "--daemon-json") == 0 && i + 1 < argc) {
      daemon_path = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--daemon-baseline=", 18) == 0) {
      daemon_baseline = arg + 18;
      continue;
    }
    if (std::strcmp(arg, "--daemon-baseline") == 0 && i + 1 < argc) {
      daemon_baseline = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--incremental-json=", 19) == 0) {
      incremental_path = arg + 19;
      continue;
    }
    if (std::strcmp(arg, "--incremental-json") == 0 && i + 1 < argc) {
      incremental_path = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--incremental-baseline=", 23) == 0) {
      incremental_baseline = arg + 23;
      continue;
    }
    if (std::strcmp(arg, "--incremental-baseline") == 0 && i + 1 < argc) {
      incremental_baseline = argv[++i];
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!metrics_path.empty()) {
    const fixy::Status status = fixy::bench::DumpMetrics(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!ingest_path.empty()) {
    const fixy::Status status = fixy::bench::RunIngestBench(ingest_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!multiapp_path.empty()) {
    const fixy::Status status = fixy::bench::RunMultiAppBench(multiapp_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!hotpath_path.empty() || !hotpath_baseline.empty()) {
    const fixy::Status status =
        fixy::bench::RunHotpathBench(hotpath_path, hotpath_baseline);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!shard_path.empty() || !shard_baseline.empty()) {
    const fixy::Status status =
        fixy::bench::RunShardBench(shard_path, shard_baseline, shard_cli);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!daemon_path.empty() || !daemon_baseline.empty()) {
    const fixy::Status status =
        fixy::bench::RunDaemonBench(daemon_path, daemon_baseline, shard_cli);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  if (!incremental_path.empty() || !incremental_baseline.empty()) {
    const fixy::Status status = fixy::bench::RunIncrementalBench(
        incremental_path, incremental_baseline);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
