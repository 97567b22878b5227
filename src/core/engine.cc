#include "core/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <future>
#include <iterator>
#include <memory>
#include <optional>
#include <utility>

#include "common/bounded_queue.h"
#include "common/macros.h"
#include "common/thread_pool.h"
#include "core/features_std.h"
#include "core/model_io.h"
#include "core/scene_pass.h"

namespace fixy {

Status AppendShardReport(MultiAppReport& into, MultiAppReport&& part) {
  if (into.apps.empty() && into.reports.empty()) {
    into.apps = std::move(part.apps);
    into.reports.resize(into.apps.size());
  } else if (into.apps != part.apps) {
    return Status::InvalidArgument(
        "cannot merge shard reports ranked with different applications");
  }
  if (part.reports.size() != into.reports.size()) {
    return Status::InvalidArgument(
        "shard report has a different per-app report count");
  }
  for (size_t a = 0; a < into.reports.size(); ++a) {
    std::vector<SceneOutcome>& dst = into.reports[a].outcomes;
    std::vector<SceneOutcome>& src = part.reports[a].outcomes;
    dst.insert(dst.end(), std::make_move_iterator(src.begin()),
               std::make_move_iterator(src.end()));
  }
  return Status::Ok();
}

void RecomputeReportSummary(MultiAppReport& report) {
  for (BatchReport& batch : report.reports) {
    batch.scenes_ok = 0;
    batch.scenes_failed = 0;
    batch.scenes_quarantined = 0;
    for (const SceneOutcome& outcome : batch.outcomes) {
      if (outcome.ok()) {
        ++batch.scenes_ok;
      } else {
        ++batch.scenes_failed;
        ++batch.scenes_quarantined;
      }
    }
  }
}

Fixy::Fixy(FixyOptions options)
    : options_(std::move(options)),
      registry_(ApplicationRegistry::Standard()) {
  for (const AppSpec& app : options_.extra_applications) {
    const Status status = registry_.Register(app);
    if (!status.ok() && registry_status_.ok()) registry_status_ = status;
  }
}

std::vector<FeaturePtr> Fixy::BaseFeatures() const {
  // Standard learned features (Table 2): class-conditional volume and
  // velocity, plus any user-provided extras.
  std::vector<FeaturePtr> features;
  features.push_back(std::make_shared<VolumeFeature>());
  features.push_back(std::make_shared<VelocityFeature>());
  for (const FeaturePtr& extra : options_.extra_features) {
    features.push_back(extra);
  }
  return features;
}

Status Fixy::Learn(const Dataset& training) {
  const obs::ScopedStageTimer learn_timer("learn.total");
  const std::vector<FeaturePtr> features = BaseFeatures();
  const DistributionLearner learner(options_.learner);
  FIXY_ASSIGN_OR_RETURN(LearnedFeatureSet base_set,
                        learner.LearnWithStats(training, features));

  // Track-count distribution for the model-error application: counts are
  // discrete, so fit a categorical regardless of the main estimator.
  LearnerOptions count_options = options_.learner;
  count_options.estimator = EstimatorKind::kCategorical;
  const DistributionLearner count_learner(count_options);
  FIXY_ASSIGN_OR_RETURN(
      LearnedFeatureSet count_set,
      count_learner.LearnWithStats(training,
                                   {std::make_shared<CountFeature>()}));

  learned_base_ = std::move(base_set.distributions);
  stats_base_ = std::move(base_set.stats);
  stats_count_ = std::move(count_set.stats);
  learned_with_count_ = learned_base_;
  learned_with_count_.push_back(std::move(count_set.distributions.front()));
  has_stats_ = true;
  learned_flag_ = true;
  RebuildSpecs();
  return Status::Ok();
}

Status Fixy::LearnIncremental(const Dataset& delta) {
  const obs::ScopedStageTimer learn_timer("learn.total");
  FIXY_RETURN_IF_ERROR(CheckLearned());
  if (!has_stats_) {
    return Status::FailedPrecondition(
        "model carries no sufficient statistics to fold into (saved before "
        "incremental learning?) — run a full Learn() instead");
  }
  const std::vector<FeaturePtr> features = BaseFeatures();
  const DistributionLearner learner(options_.learner);
  LearnedFeatureSet base_state{learned_base_, stats_base_};
  FIXY_RETURN_IF_ERROR(learner.Fold(delta, features, base_state));

  LearnerOptions count_options = options_.learner;
  count_options.estimator = EstimatorKind::kCategorical;
  const DistributionLearner count_learner(count_options);
  LearnedFeatureSet count_state{{learned_with_count_.back()}, stats_count_};
  FIXY_RETURN_IF_ERROR(count_learner.Fold(
      delta, {std::make_shared<CountFeature>()}, count_state));

  // Both folds succeeded — commit.
  learned_base_ = std::move(base_state.distributions);
  stats_base_ = std::move(base_state.stats);
  stats_count_ = std::move(count_state.stats);
  learned_with_count_ = learned_base_;
  learned_with_count_.push_back(std::move(count_state.distributions.front()));
  RebuildSpecs();
  return Status::Ok();
}

Status Fixy::SaveModel(const std::string& path) const {
  FIXY_RETURN_IF_ERROR(CheckLearned());
  // learned_with_count_ = learned_base_ + the track-count distribution, so
  // serializing it captures the full learned state; the parallel stats
  // (when held) make the saved model foldable after a reload.
  std::vector<FeatureStats> stats;
  if (has_stats_) {
    stats = stats_base_;
    stats.insert(stats.end(), stats_count_.begin(), stats_count_.end());
  }
  return SaveLearnedModel(learned_with_count_, stats, path);
}

Status Fixy::LoadModel(const std::string& path) {
  FeatureRegistry registry = FeatureRegistry::Standard();
  for (const FeaturePtr& extra : options_.extra_features) {
    registry.Register(extra);
  }
  FIXY_ASSIGN_OR_RETURN(LoadedModel model,
                        LoadLearnedModelWithStats(path, registry));
  // Split the count distribution back out: the label-error applications
  // use the manual count *filter* instead of the learned distribution.
  // The stats (when present) are parallel to the distributions and split
  // the same way. learned_with_count_ is rebuilt count-last so the
  // learned state (and a subsequent SaveModel) is canonical whatever
  // order the file listed the features in.
  learned_base_.clear();
  stats_base_.clear();
  stats_count_.clear();
  const bool with_stats = model.has_stats();
  std::optional<FeatureDistribution> count_fd;
  for (size_t i = 0; i < model.distributions.size(); ++i) {
    FeatureDistribution& fd = model.distributions[i];
    if (fd.feature().kind() == FeatureKind::kTrack &&
        fd.feature().name() == "count") {
      count_fd = std::move(fd);
      if (with_stats) stats_count_.push_back(std::move(model.stats[i]));
    } else {
      learned_base_.push_back(std::move(fd));
      if (with_stats) stats_base_.push_back(std::move(model.stats[i]));
    }
  }
  if (!count_fd.has_value()) {
    learned_base_.clear();
    learned_with_count_.clear();
    stats_base_.clear();
    stats_count_.clear();
    has_stats_ = false;
    return Status::InvalidArgument(
        "model file is missing the learned 'count' distribution");
  }
  learned_with_count_ = learned_base_;
  learned_with_count_.push_back(std::move(*count_fd));
  has_stats_ = with_stats;
  learned_flag_ = true;
  RebuildSpecs();
  return Status::Ok();
}

void Fixy::RebuildSpecs() {
  const obs::ScopedStageTimer timer("learn.rebuild_specs");
  const LearnedState learned{learned_base_, learned_with_count_};
  specs_.clear();
  specs_.reserve(registry_.apps().size());
  for (const AppSpec& app : registry_.apps()) {
    specs_.push_back(app.build_spec(learned, options_.application));
  }
}

Status Fixy::CheckLearned() const {
  if (!learned_flag_) {
    return Status::FailedPrecondition(
        "Fixy::Learn() must succeed before ranking errors");
  }
  return Status::Ok();
}

Result<Fixy::RunPlan> Fixy::PlanRun(
    const std::vector<std::string>& names) const {
  FIXY_RETURN_IF_ERROR(CheckLearned());
  FIXY_RETURN_IF_ERROR(registry_status_);
  RunPlan plan;
  FIXY_ASSIGN_OR_RETURN(plan.app_indices, registry_.Resolve(names));
  for (const size_t idx : plan.app_indices) {
    const SceneView view = registry_.apps()[idx].view;
    plan.need_full = plan.need_full || view == SceneView::kFull;
    plan.need_model = plan.need_model || view == SceneView::kModelOnly;
  }
  return plan;
}

Result<std::vector<ErrorProposal>> Fixy::Find(const Scene& scene,
                                              const std::string& app) const {
  FIXY_ASSIGN_OR_RETURN(MultiAppReport report, RankScene(scene, {app}));
  SceneOutcome& outcome = report.reports.front().outcomes.front();
  if (!outcome.ok()) return outcome.status;
  return std::move(outcome.proposals);
}

Result<std::vector<ErrorProposal>> Fixy::FindMissingTracks(
    const Scene& scene) const {
  return Find(scene, "missing-tracks");
}

Result<std::vector<ErrorProposal>> Fixy::FindMissingObservations(
    const Scene& scene) const {
  return Find(scene, "missing-obs");
}

Result<std::vector<ErrorProposal>> Fixy::FindModelErrors(
    const Scene& scene) const {
  return Find(scene, "model-errors");
}

void Fixy::RankSceneApps(const RunPlan& plan, const Scene& scene,
                         std::vector<BatchReport>& reports,
                         size_t slot) const {
  // One association pass (and one lazily shared feature-score cache per
  // view) serves every application ranking this scene. A pass failure —
  // e.g. a scene that fails validation — fails every application's
  // outcome with the same Status.
  Result<ScenePass> pass =
      ScenePass::Run(scene, options_.application.track_builder,
                     plan.need_full, plan.need_model);
  for (size_t a = 0; a < plan.app_indices.size(); ++a) {
    SceneOutcome& outcome = reports[a].outcomes[slot];
    outcome.scene_name = scene.name();
    if (!pass.ok()) {
      outcome.status = pass.status();
      continue;
    }
    const size_t idx = plan.app_indices[a];
    Result<std::vector<ErrorProposal>> proposals =
        RunApplicationOnPass(registry_.apps()[idx], specs_[idx], scene,
                             pass.value(), options_.application);
    if (proposals.ok()) {
      outcome.proposals = std::move(proposals).value();
    } else {
      outcome.status = proposals.status();
    }
  }
}

MultiAppReport Fixy::EmptyReport(const RunPlan& plan,
                                 size_t scene_count) const {
  MultiAppReport multi;
  multi.apps.reserve(plan.app_indices.size());
  for (const size_t idx : plan.app_indices) {
    multi.apps.push_back(registry_.apps()[idx].name);
  }
  multi.reports.resize(plan.app_indices.size());
  for (BatchReport& report : multi.reports) {
    report.outcomes.resize(scene_count);
  }
  return multi;
}

Result<MultiAppReport> Fixy::RankScene(
    const Scene& scene, const std::vector<std::string>& apps) const {
  FIXY_ASSIGN_OR_RETURN(RunPlan plan, PlanRun(apps));
  MultiAppReport multi = EmptyReport(plan, 1);
  RankSceneApps(plan, scene, multi.reports, 0);
  RecomputeReportSummary(multi);
  return multi;
}

Result<MultiAppReport> Fixy::RankDatasetStreaming(
    const SceneSource& source, const std::vector<std::string>& apps,
    const BatchOptions& batch, const StreamOptions& stream) const {
  FIXY_ASSIGN_OR_RETURN(RunPlan plan, PlanRun(apps));

  const size_t scene_count = source.scene_count();
  MultiAppReport multi = EmptyReport(plan, scene_count);

  const bool collect = batch.collect_metrics;
  const obs::StageTimer total_timer;
  // Two collectors per scene — one filled by the loader that decodes it,
  // one by the worker that ranks it — merged back in source order, so
  // every counter total is byte-identical at any decode/rank thread
  // combination. With metrics off, a null scope is installed instead so
  // an ambient caller-installed collector sees no contribution at all.
  std::vector<obs::PipelineMetrics> scene_metrics(collect ? scene_count : 0);

  const int rank_threads = ThreadPool::ResolveThreadCount(batch.num_threads);
  const int decode_threads = std::max(1, stream.decode_threads);
  const size_t queue_capacity =
      stream.queue_capacity != 0 ? stream.queue_capacity
                                 : static_cast<size_t>(rank_threads) * 2;

  // A decoded (or failed-to-decode) scene in flight between the loader
  // pool and the rank workers. Each scene is decoded once however many
  // applications rank it.
  struct WorkItem {
    size_t index;
    Result<std::shared_ptr<const Scene>> scene;
  };
  const int stall_ms = stream.stall_timeout_ms;
  // Everything a decode task touches after a stall abort must live on the
  // heap, shared with the task: if the run is declared stalled, the
  // decode pool is abandoned un-joined and its threads may still run.
  // (`source` is the one caller-owned exception — see StreamOptions.)
  struct StreamContext {
    StreamContext(size_t capacity, size_t metric_slots, size_t resident_limit)
        : queue(capacity),
          decode_metrics(metric_slots),
          resident_limit(resident_limit) {}
    BoundedQueue<WorkItem> queue;
    std::vector<obs::PipelineMetrics> decode_metrics;
    std::atomic<bool> cancelled{false};
    std::atomic<bool> stalled{false};

    // Residency gate (StreamOptions::max_resident_scenes): loaders take a
    // permit before decoding; the permit is freed when a rank worker
    // claims the scene. Limit 0 never blocks but still tracks the peak.
    const size_t resident_limit;
    std::mutex resident_mu;
    std::condition_variable resident_cv;
    size_t resident_now = 0;
    size_t resident_peak = 0;
    bool resident_closed = false;

    /// Blocks until a permit frees up; false once the gate is closed
    /// (stall shutdown), so a parked loader can bow out.
    bool AcquireResident() {
      std::unique_lock<std::mutex> lock(resident_mu);
      resident_cv.wait(lock, [this] {
        return resident_closed || resident_limit == 0 ||
               resident_now < resident_limit;
      });
      if (resident_closed) return false;
      ++resident_now;
      resident_peak = std::max(resident_peak, resident_now);
      return true;
    }
    void ReleaseResident() {
      {
        const std::lock_guard<std::mutex> lock(resident_mu);
        --resident_now;
      }
      resident_cv.notify_one();
    }
    void CloseResident() {
      {
        const std::lock_guard<std::mutex> lock(resident_mu);
        resident_closed = true;
      }
      resident_cv.notify_all();
    }
    size_t ResidentPeak() {
      const std::lock_guard<std::mutex> lock(resident_mu);
      return resident_peak;
    }
  };
  auto ctx = std::make_shared<StreamContext>(
      queue_capacity, collect ? scene_count : 0, stream.max_resident_scenes);
  BoundedQueue<WorkItem>& queue = ctx->queue;

  // Loader side: decode scene i and push it. Push blocks when the queue
  // is full — that back-pressure is what bounds ingestion memory — and
  // the residency gate is taken before the decode even starts, so a
  // loader blocked on a full queue still counts against the ceiling.
  // Captures ctx by value so abandoned tasks stay memory-safe.
  auto decode_one = [collect, &source, ctx](size_t i) {
    if (ctx->cancelled.load(std::memory_order_relaxed)) return;
    if (!ctx->AcquireResident()) return;
    obs::MetricsCollector decode_collector;
    const obs::MetricsScope scope(collect ? &decode_collector : nullptr);
    Result<std::shared_ptr<const Scene>> scene = source.DecodeScene(i);
    if (collect) ctx->decode_metrics[i] = decode_collector.Snapshot();
    ctx->queue.Push(WorkItem{i, std::move(scene)});
  };

  // The pop the rank workers use: plain blocking Pop without a stall
  // deadline; with one, a queue empty for stall_ms flags the run as
  // stalled and the worker bows out (the flag, not the worker, fails the
  // run — items never sit unclaimed, because a timeout can only fire on
  // an empty queue). A claimed scene frees its residency permit: it now
  // belongs to the rank worker, not the ingestion window.
  auto pop_item = [ctx, stall_ms]() -> std::optional<WorkItem> {
    std::optional<WorkItem> item;
    if (stall_ms <= 0) {
      item = ctx->queue.Pop();
    } else {
      switch (ctx->queue.PopWithTimeout(stall_ms, &item)) {
        case BoundedQueue<WorkItem>::PopStatus::kItem:
          break;
        case BoundedQueue<WorkItem>::PopStatus::kClosed:
          return std::nullopt;
        case BoundedQueue<WorkItem>::PopStatus::kTimeout:
          ctx->stalled.store(true, std::memory_order_relaxed);
          return std::nullopt;
      }
    }
    if (item.has_value()) ctx->ReleaseResident();
    return item;
  };

  // Rank side: long-lived workers popping until the queue is closed and
  // drained. Outcomes land in pre-assigned slots, so arrival order —
  // which varies with scheduling — cannot reorder the report. A failing
  // scene writes only its own slots, so it cannot poison its neighbours.
  // All of a scene's applications run on one worker, in request order, so
  // per-app counters are deterministic too. A decode failure flows
  // through as every application's outcome Status for that scene,
  // exactly like a ranking failure.
  auto rank_worker = [this, collect, &plan, &source, &multi, &scene_metrics,
                      &pop_item] {
    for (;;) {
      const obs::StageTimer wait_timer;
      std::optional<WorkItem> item = pop_item();
      if (!item.has_value()) return;  // closed and drained, or stalled
      const uint64_t wait_ns = wait_timer.ElapsedNs();
      const size_t i = item->index;
      obs::MetricsCollector scene_collector;
      const obs::MetricsScope scope(collect ? &scene_collector : nullptr);
      const obs::StageTimer scene_timer;
      if (!item->scene.ok()) {
        for (BatchReport& report : multi.reports) {
          report.outcomes[i].scene_name = source.scene_name(i);
          report.outcomes[i].status = item->scene.status();
        }
      } else {
        RankSceneApps(plan, **item->scene, multi.reports, i);
      }
      if (collect) {
        const uint64_t wall_ns = scene_timer.ElapsedNs();
        const double wall_ms = static_cast<double>(wall_ns) * 1e-6;
        for (BatchReport& report : multi.reports) {
          report.outcomes[i].wall_ms = wall_ms;
        }
        scene_collector.Count("span.scene.calls");
        scene_collector.AddTimeNs("span.scene", wall_ns);
        // The wait is the pop on the decode→rank queue; batch.queue_wait
        // stays in the snapshot schema, recorded at zero.
        scene_collector.AddTimeNs("io.fxb.queue_wait", wait_ns);
        scene_collector.AddTimeNs("batch.queue_wait", 0);
        scene_metrics[i] = scene_collector.Snapshot();
      }
    }
  };

  {
    // Rank workers first so consumers exist before the first Push can
    // fill the queue; the loader pool drains itself before Close().
    ThreadPool rank_pool(rank_threads);
    std::vector<std::future<void>> rank_futures;
    rank_futures.reserve(static_cast<size_t>(rank_threads));
    for (int t = 0; t < rank_threads; ++t) {
      rank_futures.push_back(rank_pool.Submit(rank_worker));
    }
    // The decode pool is abandoned (not destroyed) when the run stalls:
    // its destructor would join the wedged thread and hang forever.
    auto decode_pool = std::make_unique<ThreadPool>(decode_threads);
    std::vector<std::future<void>> decode_futures;
    decode_futures.reserve(scene_count);
    for (size_t i = 0; i < scene_count; ++i) {
      // decode_one copied by value: the task owns its ctx reference.
      decode_futures.push_back(
          decode_pool->Submit([decode_one, i] { decode_one(i); }));
    }
    bool stalled = false;
    if (stall_ms <= 0) {
      for (std::future<void>& future : decode_futures) future.get();
    } else {
      for (std::future<void>& future : decode_futures) {
        while (future.wait_for(std::chrono::milliseconds(50)) ==
               std::future_status::timeout) {
          if (ctx->stalled.load(std::memory_order_relaxed)) {
            stalled = true;
            break;
          }
        }
        if (stalled) break;
      }
    }
    if (stalled) {
      // Tell queued decode tasks to skip, unblock decoders mid-Push and
      // rank workers mid-Pop, then abandon the pool: every thread but the
      // wedged one winds down promptly, and the wedged one parks on the
      // leaked pool holding only ctx (and the caller's source) alive.
      ctx->cancelled.store(true, std::memory_order_relaxed);
      ctx->CloseResident();
      queue.Close();
      (void)decode_pool.release();
      for (std::future<void>& future : rank_futures) future.get();
      return Status::Internal(
          "streaming rank stalled: no scene reached a rank worker for over " +
          std::to_string(stall_ms) +
          " ms with decodes outstanding (wedged decode worker?)");
    }
    decode_pool.reset();  // drains and joins normally
    queue.Close();
    for (std::future<void>& future : rank_futures) future.get();
  }

  // The fail-fast contract: the first failure in source order (then
  // request order within a scene) wins, so error reporting is as
  // deterministic as the success path.
  size_t scenes_any_failed = 0;
  for (size_t i = 0; i < scene_count; ++i) {
    bool any_failed = false;
    for (const BatchReport& report : multi.reports) {
      const SceneOutcome& outcome = report.outcomes[i];
      if (outcome.ok()) continue;
      if (batch.fail_fast) {
        // Name the scene so callers can tell which one sank the run.
        return Status(outcome.status.code(),
                      "scene '" + outcome.scene_name +
                          "': " + outcome.status.message());
      }
      any_failed = true;
    }
    if (any_failed) ++scenes_any_failed;
  }
  RecomputeReportSummary(multi);

  if (collect) {
    for (size_t i = 0; i < scene_count; ++i) {
      multi.metrics.MergeFrom(ctx->decode_metrics[i]);
      multi.metrics.MergeFrom(scene_metrics[i]);
    }
    // Scene-granularity batch counters: a scene counts as ok only when
    // every application ranked it (equals the per-app counters for a
    // single-application run).
    multi.metrics.counters["batch.scenes"] += scene_count;
    multi.metrics.counters["batch.scenes_ok"] +=
        scene_count - scenes_any_failed;
    multi.metrics.counters["batch.scenes_failed"] += scenes_any_failed;
    multi.metrics.counters["batch.scenes_quarantined"] += scenes_any_failed;
    multi.metrics.timers_ms["batch.total"] = total_timer.ElapsedMs();
    multi.metrics.gauges["batch.threads"] = static_cast<double>(rank_threads);
    multi.metrics.gauges["stream.resident_scenes_peak"] =
        static_cast<double>(ctx->ResidentPeak());
    double scene_ms_max = 0.0;
    for (const SceneOutcome& outcome : multi.reports.front().outcomes) {
      scene_ms_max = std::max(scene_ms_max, outcome.wall_ms);
    }
    multi.metrics.gauges["batch.scene_ms_max"] = scene_ms_max;
  }
  return multi;
}

}  // namespace fixy
