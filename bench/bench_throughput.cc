// Dataset-scale ranking throughput: scenes/sec of Fixy::RankDatasetStreaming
// over an in-memory 64-scene Lyft-like dataset, swept over worker-thread
// count. Tracks the batch engine's parallel speedup (the production
// workload is ranking whole datasets, not the single 15 s scene of
// Section 8.1). A measurement, not a gate: timing regressions are gated
// by `tools/check.sh perf` (perfbench against a host-keyed reference).
#include <benchmark/benchmark.h>

#include <string>

#include "core/engine.h"
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

}  // namespace
}  // namespace fixy::bench

BENCHMARK_MAIN();
