// Shard planning: splitting a dataset's scene range into independently
// rankable shards, and fingerprinting a ranking run so checkpoints written
// by one invocation are only ever trusted by an identical one.
//
// A shard is a contiguous [begin, end) scene-index range over the
// existing per-scene FXB section index (or the JSON manifest order) — no
// container format change. The shard layout is a pure function of the
// scene count and the scenes-per-shard setting, NEVER of the worker
// count, so a run resumed with a different --workers value still lines up
// with the checkpoints the killed run left behind.
#ifndef FIXY_SHARD_SHARD_PLAN_H_
#define FIXY_SHARD_SHARD_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/scene_source.h"
#include "io/fxb.h"

namespace fixy::shard {

/// Default number of shards a dataset is split into when the caller does
/// not pin --shard-scenes: small enough that per-shard process overhead
/// stays negligible, large enough that one quarantined shard loses at
/// most ~1/16 of the dataset.
inline constexpr size_t kDefaultShardCount = 16;

/// A contiguous scene-index range [begin, end).
struct ShardRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool operator==(const ShardRange&) const = default;
};

/// Resolves the scenes-per-shard setting: `requested` when positive,
/// otherwise ceil(scene_count / kDefaultShardCount), clamped to >= 1.
int ResolveScenesPerShard(size_t scene_count, int requested);

/// Splits [0, scene_count) into consecutive shards of `scenes_per_shard`
/// scenes (the last shard takes the remainder). Empty for an empty
/// dataset. Precondition: scenes_per_shard >= 1.
std::vector<ShardRange> PlanShards(size_t scene_count, int scenes_per_shard);

/// A SceneSource view of one shard: scene i of the view is scene
/// range.begin + i of the base source. The base source must outlive the
/// view. Feeding a view through RankDatasetStreaming yields outcomes
/// whose slots are exactly the base report's [begin, end) slice — the
/// core of the shard-merge determinism argument (DESIGN.md §12).
class ShardSceneView : public SceneSource {
 public:
  ShardSceneView(const SceneSource& base, ShardRange range)
      : base_(&base), range_(range) {}

  size_t scene_count() const override { return range_.size(); }
  std::string scene_name(size_t index) const override {
    return base_->scene_name(range_.begin + index);
  }
  Result<std::shared_ptr<const Scene>> DecodeScene(
      size_t index) const override {
    return base_->DecodeScene(range_.begin + index);
  }

 private:
  const SceneSource* base_;
  ShardRange range_;
};

/// A dataset directory opened for shard ranking: the fresh FXB cache when
/// one exists (and caching was not opted out), the JSON directory source
/// otherwise. Both coordinator and workers open the directory through
/// this one helper so they agree on scene count, order, and names.
struct ShardSource {
  std::unique_ptr<SceneSource> source;
  bool from_cache = false;
};

/// Errors: whatever the cache open or manifest read fails with.
Result<ShardSource> OpenShardSource(const std::string& directory,
                                    bool no_cache);

/// Everything that must match between the run that wrote a checkpoint and
/// the run that wants to reuse it. Any difference — source files changed,
/// model re-learned, different app selection, pruning setting, or shard
/// layout — changes the fingerprint and invalidates the checkpoint.
struct RunFingerprintInputs {
  /// Fingerprint of the dataset's JSON source files (the same one the FXB
  /// staleness check uses), so edits to the data invalidate checkpoints
  /// whether or not a cache is in play.
  io::FxbSourceFingerprint source;
  /// CRC32 + byte size of the model file.
  uint32_t model_crc = 0;
  uint64_t model_bytes = 0;
  /// Resolved application names, in request order.
  std::vector<std::string> apps;
  /// ApplicationOptions::top_k_per_class (affects proposals).
  int top_k_per_class = 0;
  uint64_t scene_count = 0;
  int scenes_per_shard = 0;
};

/// FNV-1a 64 over a version tag and every field above (strings
/// length-prefixed), so the hash is stable across runs and platforms.
uint64_t ComputeRunFingerprint(const RunFingerprintInputs& inputs);

}  // namespace fixy::shard

#endif  // FIXY_SHARD_SHARD_PLAN_H_
