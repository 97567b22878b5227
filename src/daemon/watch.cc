#include "daemon/watch.h"

#include <atomic>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <set>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#endif

#include "common/macros.h"
#include "core/ranker.h"
#include "data/scene.h"
#include "io/fxb.h"
#include "obs/metrics.h"

namespace fixy::daemon {
namespace {

#if defined(__unix__) || defined(__APPLE__)

/// Write fd of the watch loop's stop pipe, for the signal handler. The
/// same self-pipe trick fixyd uses: the handler only writes one byte to a
/// non-blocking pipe (async-signal-safe), and the poll loop notices.
std::atomic<int> g_watch_stop_fd{-1};

void OnWatchStopSignal(int) {
  const int fd = g_watch_stop_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  const char byte = 1;
  // A full pipe means a stop is already pending; dropping the byte is fine.
  (void)!::write(fd, &byte, 1);
}

/// RAII self-pipe + SIGINT/SIGTERM handlers; restores the previous
/// handlers and closes the pipe on destruction, so a bounded watch run
/// (--max-cycles) leaves the process's signal disposition untouched.
class SignalPipe {
 public:
  Status Install() {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      return Status::IoError("pipe() failed for the watch stop pipe");
    }
    read_fd_ = fds[0];
    write_fd_ = fds[1];
    // Both ends non-blocking: the handler must never block, and a drained
    // read must not hang the loop.
    ::fcntl(read_fd_, F_SETFL, O_NONBLOCK);
    ::fcntl(write_fd_, F_SETFL, O_NONBLOCK);
    g_watch_stop_fd.store(write_fd_, std::memory_order_relaxed);
    struct sigaction action {};
    action.sa_handler = OnWatchStopSignal;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &old_int_);
    ::sigaction(SIGTERM, &action, &old_term_);
    installed_ = true;
    return Status::Ok();
  }

  int read_fd() const { return read_fd_; }

  ~SignalPipe() {
    if (installed_) {
      ::sigaction(SIGINT, &old_int_, nullptr);
      ::sigaction(SIGTERM, &old_term_, nullptr);
      g_watch_stop_fd.store(-1, std::memory_order_relaxed);
    }
    if (read_fd_ >= 0) ::close(read_fd_);
    if (write_fd_ >= 0) ::close(write_fd_);
  }

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
  struct sigaction old_int_ {};
  struct sigaction old_term_ {};
  bool installed_ = false;
};

/// Waits up to `timeout_ms` for either stop fd to become readable.
/// Returns true when a stop was signalled (the fds are left undrained —
/// stop is terminal). With no fds this is a plain sleep.
bool WaitForStop(int fd_a, int fd_b, int timeout_ms) {
  struct pollfd fds[2];
  nfds_t count = 0;
  if (fd_a >= 0) fds[count++] = {fd_a, POLLIN, 0};
  if (fd_b >= 0) fds[count++] = {fd_b, POLLIN, 0};
  if (count == 0) {
    if (timeout_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    }
    return false;
  }
  const int ready = ::poll(fds, count, timeout_ms);
  if (ready <= 0) return false;  // timeout or EINTR: just poll again
  for (nfds_t i = 0; i < count; ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) return true;
  }
  return false;
}

#else  // non-POSIX: no signal pipe; --max-cycles bounds the loop.

class SignalPipe {
 public:
  Status Install() {
    return Status::Unimplemented(
        "watch signal handling requires a POSIX platform");
  }
  int read_fd() const { return -1; }
};

bool WaitForStop(int, int, int timeout_ms) {
  if (timeout_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
  }
  return false;
}

#endif

/// Mutable state threaded through the cycles.
struct WatchState {
  Fixy* fixy = nullptr;
  const WatchOptions* options = nullptr;
  std::vector<std::string> apps;
  BatchOptions batch;
  WatchReport* report = nullptr;
  obs::MetricsCollector* collector = nullptr;  // null when not collecting
  bool bootstrap = true;  ///< first cycle ranks everything once
};

#if defined(__GNUC__)
__attribute__((format(printf, 2, 3)))
#endif
void Say(const WatchState& state, const char* format, ...) {
  if (state.options->quiet) return;
  va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::fflush(stdout);  // scripts tail watch output live
}

/// One poll: detect → update cache → fold labels → re-rank. Returns an
/// error only for failures worth retrying next cycle (mid-edit datasets,
/// raced caches); the caller counts them and keeps polling.
Status CycleOnce(WatchState& state) {
  const WatchOptions& options = *state.options;
  const std::string& dir = options.data_dir;

  // 1. Change detection: a stat-only pass over the sources. NotFound
  // means no cache yet — the first update is a full build.
  bool need_update = false;
  std::string why;
  Result<io::CacheStaleness> staleness = io::ExplainCacheStaleness(dir);
  if (staleness.ok()) {
    need_update = staleness->stale;
    why = staleness->Summary();
  } else if (staleness.status().code() == StatusCode::kNotFound) {
    need_update = true;
    why = "no cache yet";
  } else {
    return staleness.status();
  }

  if (!need_update && !state.bootstrap) {
    state.report->idle_cycles += 1;
    obs::Count("watch.idle");
    return Status::Ok();
  }

  // 2. Incremental cache refresh: only the added/changed scenes
  // re-encode; everything else is copied byte-for-byte.
  bool all_scenes = state.bootstrap;
  std::set<std::string> affected;
  if (need_update) {
    Say(state, "watch: change detected (%s)\n", why.c_str());
    const obs::StageTimer update_timer;
    FIXY_ASSIGN_OR_RETURN(const io::FxbUpdateReport update,
                          io::UpdateFxbCache(dir));
    obs::AddTimeNs("watch.update", update_timer.ElapsedNs());
    state.report->updates += 1;
    state.report->scenes_encoded += update.scenes_encoded;
    state.report->scenes_dropped += update.scenes_dropped;
    obs::Count("watch.updates");
    obs::Count("watch.scenes_encoded", update.scenes_encoded);
    obs::Count("watch.scenes_dropped", update.scenes_dropped);
    if (update.rebuilt) {
      state.report->rebuilds += 1;
      obs::Count("watch.rebuilds");
      all_scenes = true;
    }
    affected.insert(update.encoded_files.begin(), update.encoded_files.end());
    Say(state,
        "watch: cache refreshed — %zu scenes (%zu reused, %zu re-encoded, "
        "%zu dropped%s)\n",
        update.scenes_total, update.scenes_reused, update.scenes_encoded,
        update.scenes_dropped, update.rebuilt ? ", full rebuild" : "");
    if (!all_scenes && affected.empty()) {
      // Fingerprint-only refresh (touched-but-identical files): the cache
      // was resealed but no scene content changed, so nothing re-ranks.
      return Status::Ok();
    }
  }

  // 3. Decode the affected scenes from the refreshed cache. A cache that
  // reads stale again means the sources changed while we were updating —
  // retry next cycle rather than ranking a moving target.
  FIXY_ASSIGN_OR_RETURN(const io::FxbReader reader, io::OpenFreshCache(dir));
  Dataset delta;
  delta.name = reader.dataset_name();
  for (size_t i = 0; i < reader.scene_count(); ++i) {
    if (!all_scenes && affected.count(reader.sources()[i].file) == 0) {
      continue;
    }
    Result<Scene> scene = reader.DecodeScene(i);
    if (!scene.ok()) {
      obs::Count("watch.scene_failures");
      Say(state, "watch: SKIPPED %s: %s\n", reader.SceneNameHint(i).c_str(),
          scene.status().ToString().c_str());
      continue;
    }
    delta.scenes.push_back(std::move(*scene));
  }
  if (delta.scenes.empty()) return Status::Ok();

  // 4. Optionally fold the changed scenes' labels into the model. A fold
  // failure leaves the model untouched (LearnIncremental's contract), so
  // ranking below still runs against the previous model.
  if (options.learn_labels && !state.bootstrap) {
    const obs::StageTimer fold_timer;
    const Status folded = state.fixy->LearnIncremental(delta);
    obs::AddTimeNs("watch.fold", fold_timer.ElapsedNs());
    if (folded.ok()) {
      const std::string& out =
          options.model_out.empty() ? options.model_path : options.model_out;
      const Status saved = state.fixy->SaveModel(out);
      if (saved.ok()) {
        state.report->folds += 1;
        obs::Count("watch.folds");
        Say(state, "watch: folded %zu scenes into the model (%s)\n",
            delta.scenes.size(), out.c_str());
      } else {
        state.report->errors += 1;
        obs::Count("watch.errors");
        Say(state, "watch: model save failed: %s\n",
            saved.ToString().c_str());
      }
    } else {
      state.report->errors += 1;
      obs::Count("watch.errors");
      Say(state, "watch: fold failed (ranking with the previous model): %s\n",
          folded.ToString().c_str());
    }
  }

  // 5. Re-rank only the changed scenes.
  const obs::StageTimer rank_timer;
  const DatasetSceneSource delta_source(delta);
  FIXY_ASSIGN_OR_RETURN(
      const MultiAppReport ranked,
      state.fixy->RankDatasetStreaming(delta_source, state.apps, state.batch));
  obs::AddTimeNs("watch.rank", rank_timer.ElapsedNs());
  if (state.collector != nullptr) state.collector->Merge(ranked.metrics);
  for (size_t a = 0; a < ranked.apps.size(); ++a) {
    const BatchReport& app_report = ranked.reports[a];
    for (const SceneOutcome& outcome : app_report.outcomes) {
      if (!outcome.ok()) {
        Say(state, "watch: FAILED %s [%s]: %s\n", outcome.scene_name.c_str(),
            ranked.apps[a].c_str(), outcome.status.ToString().c_str());
        continue;
      }
      const auto top = TopK(outcome.proposals,
                            static_cast<size_t>(options.top));
      Say(state, "watch: %s [%s]: %zu candidates\n",
          outcome.scene_name.c_str(), ranked.apps[a].c_str(),
          outcome.proposals.size());
      int rank = 1;
      for (const ErrorProposal& p : top) {
        Say(state, "  #%2d %s\n", rank++, p.ToString().c_str());
      }
    }
  }
  const size_t ranked_ok = ranked.reports.front().scenes_ok;
  state.report->scenes_ranked += ranked_ok;
  obs::Count("watch.scenes_ranked", ranked_ok);
  obs::Count("watch.scene_failures", ranked.reports.front().scenes_failed);
  return Status::Ok();
}

}  // namespace

void RecordWatchMetricsSchema() {
  obs::Count("watch.cycles", 0);
  obs::Count("watch.updates", 0);
  obs::Count("watch.idle", 0);
  obs::Count("watch.errors", 0);
  obs::Count("watch.rebuilds", 0);
  obs::Count("watch.scenes_encoded", 0);
  obs::Count("watch.scenes_dropped", 0);
  obs::Count("watch.scenes_ranked", 0);
  obs::Count("watch.scene_failures", 0);
  obs::Count("watch.folds", 0);
  obs::AddTimeNs("watch.cycle", 0);
  obs::AddTimeNs("watch.update", 0);
  obs::AddTimeNs("watch.fold", 0);
  obs::AddTimeNs("watch.rank", 0);
}

Result<WatchReport> WatchDataset(const WatchOptions& options) {
  std::error_code ec;
  if (!std::filesystem::is_directory(options.data_dir, ec) || ec) {
    return Status::NotFound("dataset directory does not exist: " +
                            options.data_dir);
  }
  if (!std::filesystem::exists(options.data_dir + "/manifest.json", ec) ||
      ec) {
    return Status::InvalidArgument("not a fixy dataset (no manifest.json in " +
                                   options.data_dir + ")");
  }
  if (options.model_path.empty()) {
    return Status::InvalidArgument("watch needs a --model to rank with");
  }
  if (options.poll_interval_ms < 0) {
    return Status::InvalidArgument("poll interval must be >= 0 ms");
  }

  Fixy fixy(options.engine);
  FIXY_RETURN_IF_ERROR(fixy.LoadModel(options.model_path));
  if (options.learn_labels && !fixy.supports_incremental_learning()) {
    return Status::FailedPrecondition(
        "--learn-labels needs a model with sufficient statistics (re-save "
        "it with a current `fixy_cli learn` to enable incremental folds)");
  }

  WatchState state;
  state.fixy = &fixy;
  state.options = &options;
  state.apps = options.apps.empty() ? fixy.applications().names()
                                    : options.apps;
  FIXY_RETURN_IF_ERROR(fixy.applications().Resolve(state.apps).status());
  state.batch = options.batch;
  state.batch.fail_fast = false;  // watch always quarantines, never aborts
  state.batch.collect_metrics = options.collect_metrics;

  WatchReport report;
  state.report = &report;

  obs::MetricsCollector collector;
  const obs::MetricsScope metrics_scope(
      options.collect_metrics ? &collector : nullptr);
  state.collector = options.collect_metrics ? &collector : nullptr;
  if (options.collect_metrics) {
    // Zero-touch every key a cycle can record, so watch snapshots carry
    // one stable key set whatever this run actually encountered.
    RecordWatchMetricsSchema();
    io::RecordFxbMetricsSchema();
    obs::Count("io.bytes_read", 0);
    obs::Count("io.files_read", 0);
    obs::AddTimeNs("io.load", 0);
    obs::AddTimeNs("io.parse", 0);
    obs::AddTimeNs("rank.track_build", 0);
    obs::Count("rank.track_builds", 0);
    for (const std::string& name : fixy.applications().names()) {
      obs::AddTimeNs("rank." + name + ".compile", 0);
      obs::Count("rank." + name + ".factors", 0);
      obs::Count("rank." + name + ".proposals", 0);
      obs::Count("rank." + name + ".pruned_tracks", 0);
    }
  }

  SignalPipe signals;
  if (options.install_signal_handlers) {
    FIXY_RETURN_IF_ERROR(signals.Install());
  }
  const int signal_fd =
      options.install_signal_handlers ? signals.read_fd() : -1;

  Say(state, "watch: polling %s every %d ms (%s)\n", options.data_dir.c_str(),
      options.poll_interval_ms,
      options.max_cycles > 0 ? "bounded" : "until SIGINT/SIGTERM");

  for (;;) {
    // A stop signalled during the previous sleep (or before the loop)
    // wins over further work.
    if (WaitForStop(options.stop_fd, signal_fd, 0)) break;
    report.cycles += 1;
    obs::Count("watch.cycles");
    const obs::StageTimer cycle_timer;
    const Status cycle = CycleOnce(state);
    obs::AddTimeNs("watch.cycle", cycle_timer.ElapsedNs());
    if (!cycle.ok()) {
      // A mid-edit dataset or raced cache: report, count, retry next poll.
      report.errors += 1;
      obs::Count("watch.errors");
      Say(state, "watch: cycle failed (retrying next poll): %s\n",
          cycle.ToString().c_str());
    }
    state.bootstrap = false;
    if (options.on_cycle) options.on_cycle(report);
    if (options.max_cycles > 0 &&
        report.cycles >= static_cast<size_t>(options.max_cycles)) {
      break;
    }
    if (WaitForStop(options.stop_fd, signal_fd, options.poll_interval_ms)) {
      break;
    }
  }

  if (options.collect_metrics) report.metrics = collector.Snapshot();
  Say(state,
      "watch: stopped after %zu cycles (%zu updates, %zu idle, %zu errors, "
      "%zu scenes re-ranked, %zu folds)\n",
      report.cycles, report.updates, report.idle_cycles, report.errors,
      report.scenes_ranked, report.folds);
  return report;
}

}  // namespace fixy::daemon
