// SceneSource: the input of dataset ranking (Fixy::RankDatasetStreaming).
// A source knows how many scenes it has and can produce any one of them on
// demand, from any thread — which is what lets the engine overlap scene
// decode with ranking instead of materializing the whole dataset before
// the first scene is scored.
//
// Implementations: io::FxbSceneSource (binary cache, mmap-backed),
// io::DirectorySceneSource (per-file JSON), shard::ShardSceneView (a
// slice of another source), and the in-memory DatasetSceneSource below,
// which lends already-loaded scenes without copying them.
#ifndef FIXY_DATA_SCENE_SOURCE_H_
#define FIXY_DATA_SCENE_SOURCE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "common/string_util.h"
#include "data/scene.h"

namespace fixy {

/// A source of scenes decoded on demand.
class SceneSource {
 public:
  virtual ~SceneSource() = default;

  /// Number of scenes this source can produce.
  virtual size_t scene_count() const = 0;

  /// Best-effort name of scene `index` without decoding it (used to label
  /// the outcome when decode itself fails). May return a placeholder.
  virtual std::string scene_name(size_t index) const = 0;

  /// Produces scene `index`. Thread-safe: may be called concurrently from
  /// multiple threads. A decoding source validates the scene at the
  /// ingestion boundary and returns a pointer that owns it; a source over
  /// scenes already in memory lends them through a non-owning pointer,
  /// valid while that memory lives.
  virtual Result<std::shared_ptr<const Scene>> DecodeScene(
      size_t index) const = 0;
};

/// An already-materialized Dataset as a SceneSource. DecodeScene lends
/// `dataset.scenes[index]` itself (a non-owning pointer, no copy); the
/// referenced dataset must outlive the source and every lent pointer.
class DatasetSceneSource : public SceneSource {
 public:
  explicit DatasetSceneSource(const Dataset& dataset) : dataset_(dataset) {}

  size_t scene_count() const override { return dataset_.scenes.size(); }

  std::string scene_name(size_t index) const override {
    return index < dataset_.scenes.size() ? dataset_.scenes[index].name()
                                          : std::string();
  }

  Result<std::shared_ptr<const Scene>> DecodeScene(
      size_t index) const override {
    if (index >= dataset_.scenes.size()) {
      return Status::OutOfRange(
          StrFormat("scene index %zu out of range (%zu scenes)", index,
                    dataset_.scenes.size()));
    }
    // Aliasing constructor with an empty owner: points at the scene,
    // owns nothing.
    return std::shared_ptr<const Scene>(std::shared_ptr<const Scene>(),
                                        &dataset_.scenes[index]);
  }

 private:
  const Dataset& dataset_;
};

}  // namespace fixy

#endif  // FIXY_DATA_SCENE_SOURCE_H_
