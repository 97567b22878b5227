// Tests for src/data: enums, observations, scenes (incl. validation
// failure injection), bundles, tracks, and the in-memory scene source.
#include <gtest/gtest.h>

#include <limits>

#include "data/observation.h"
#include "data/scene.h"
#include "data/scene_source.h"
#include "data/track.h"
#include "data/types.h"

namespace fixy {
namespace {

Observation MakeObs(ObservationId id, ObservationSource source,
                    ObjectClass cls, double x, double y, int frame,
                    double confidence = 1.0) {
  Observation obs;
  obs.id = id;
  obs.source = source;
  obs.object_class = cls;
  obs.box = geom::Box3d({x, y, 0.85}, 4.5, 1.9, 1.7, 0.0);
  obs.frame_index = frame;
  obs.timestamp = frame * 0.1;
  obs.confidence = confidence;
  return obs;
}

// ---------------------------------------------------------------- Types

TEST(TypesTest, ObjectClassRoundTrip) {
  for (ObjectClass cls : kAllObjectClasses) {
    const auto parsed = ObjectClassFromString(ObjectClassToString(cls));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, cls);
  }
}

TEST(TypesTest, ObjectClassFromStringRejectsUnknown) {
  EXPECT_FALSE(ObjectClassFromString("bicycle").ok());
  EXPECT_FALSE(ObjectClassFromString("").ok());
}

TEST(TypesTest, ObservationSourceRoundTrip) {
  for (int i = 0; i < kNumObservationSources; ++i) {
    const auto source = static_cast<ObservationSource>(i);
    const auto parsed =
        ObservationSourceFromString(ObservationSourceToString(source));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, source);
  }
  EXPECT_FALSE(ObservationSourceFromString("oracle").ok());
}

TEST(ObservationTest, ToStringMentionsKeyFields) {
  const Observation obs =
      MakeObs(17, ObservationSource::kModel, ObjectClass::kCar, 0, 0, 3, 0.91);
  const std::string s = obs.ToString();
  EXPECT_NE(s.find("17"), std::string::npos);
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("car"), std::string::npos);
}

// ---------------------------------------------------------------- Scene

Scene MakeValidScene(int frames = 3) {
  Scene scene("test", 10.0);
  ObservationId id = 1;
  for (int f = 0; f < frames; ++f) {
    Frame frame;
    frame.index = f;
    frame.timestamp = f * 0.1;
    frame.ego_position = {f * 0.8, 0.0};
    frame.observations.push_back(MakeObs(
        id++, ObservationSource::kHuman, ObjectClass::kCar, 10.0 + f, 2, f));
    frame.observations.push_back(MakeObs(id++, ObservationSource::kModel,
                                         ObjectClass::kCar, 10.05 + f, 2.02,
                                         f, 0.9));
    scene.AddFrame(std::move(frame));
  }
  return scene;
}

TEST(SceneTest, BasicAccessors) {
  const Scene scene = MakeValidScene(5);
  EXPECT_EQ(scene.frame_count(), 5u);
  EXPECT_DOUBLE_EQ(scene.frame_rate_hz(), 10.0);
  EXPECT_NEAR(scene.DurationSeconds(), 0.4, 1e-12);
  EXPECT_EQ(scene.TotalObservations(), 10u);
  EXPECT_EQ(scene.CountBySource(ObservationSource::kHuman), 5u);
  EXPECT_EQ(scene.CountBySource(ObservationSource::kModel), 5u);
  EXPECT_EQ(scene.CountBySource(ObservationSource::kAuditor), 0u);
}

TEST(SceneTest, EmptySceneDuration) {
  const Scene scene("empty", 10.0);
  EXPECT_DOUBLE_EQ(scene.DurationSeconds(), 0.0);
  EXPECT_EQ(scene.TotalObservations(), 0u);
}

TEST(SceneTest, ValidSceneValidates) {
  EXPECT_TRUE(MakeValidScene().Validate().ok());
}

TEST(SceneValidateTest, RejectsBadFrameIndex) {
  Scene scene = MakeValidScene();
  scene.frames()[1].index = 5;
  EXPECT_EQ(scene.Validate().code(), StatusCode::kFailedPrecondition);
}

TEST(SceneValidateTest, RejectsDecreasingTimestamps) {
  Scene scene = MakeValidScene();
  scene.frames()[2].timestamp = 0.0;
  scene.frames()[1].timestamp = 0.5;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsFrameIndexMismatchInObservation) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].frame_index = 2;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsDuplicateObservationIds) {
  Scene scene = MakeValidScene();
  scene.frames()[1].observations[0].id =
      scene.frames()[0].observations[0].id;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsInvalidObservationId) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].id = kInvalidObservationId;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsDegenerateBox) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].box.width = 0.0;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsOutOfRangeConfidence) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].confidence = 1.5;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNanConfidence) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].confidence =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNonFiniteBoxFields) {
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].observations[0].box.center.x = kNan;
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].observations[0].box.length = kInf;
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].observations[0].box.yaw = -kInf;
    EXPECT_FALSE(scene.Validate().ok());
  }
}

TEST(SceneValidateTest, RejectsNegativeBoxExtent) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].box.height = -1.0;
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNanFrameTimestamp) {
  Scene scene = MakeValidScene();
  scene.frames()[1].timestamp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(SceneValidateTest, RejectsNonFiniteEgoPose) {
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].ego_position.x =
        std::numeric_limits<double>::infinity();
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.frames()[0].ego_yaw = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(scene.Validate().ok());
  }
}

TEST(SceneValidateTest, RejectsNonFiniteFrameRate) {
  {
    Scene scene = MakeValidScene();
    scene.set_frame_rate_hz(std::numeric_limits<double>::quiet_NaN());
    EXPECT_FALSE(scene.Validate().ok());
  }
  {
    Scene scene = MakeValidScene();
    scene.set_frame_rate_hz(0.0);
    EXPECT_FALSE(scene.Validate().ok());
  }
}

TEST(SceneValidateTest, RejectsNanObservationTimestamp) {
  Scene scene = MakeValidScene();
  scene.frames()[0].observations[0].timestamp =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(scene.Validate().ok());
}

TEST(DatasetTest, TotalObservationsSumsScenes) {
  Dataset dataset;
  dataset.scenes.push_back(MakeValidScene(2));
  dataset.scenes.push_back(MakeValidScene(3));
  EXPECT_EQ(dataset.TotalObservations(), 10u);
}

// --------------------------------------------------------------- Bundle

ObservationBundle MakeBundle(int frame, std::vector<Observation> obs) {
  ObservationBundle bundle;
  bundle.frame_index = frame;
  bundle.timestamp = frame * 0.1;
  bundle.ego_position = {0, 0};
  bundle.observations = std::move(obs);
  return bundle;
}

TEST(BundleTest, SourceQueries) {
  const auto bundle = MakeBundle(
      0, {MakeObs(1, ObservationSource::kHuman, ObjectClass::kCar, 1, 0, 0),
          MakeObs(2, ObservationSource::kModel, ObjectClass::kCar, 1, 0, 0,
                  0.8)});
  EXPECT_TRUE(bundle.HasSource(ObservationSource::kHuman));
  EXPECT_TRUE(bundle.HasSource(ObservationSource::kModel));
  EXPECT_FALSE(bundle.HasSource(ObservationSource::kAuditor));
  ASSERT_NE(bundle.FindBySource(ObservationSource::kModel), nullptr);
  EXPECT_EQ(bundle.FindBySource(ObservationSource::kModel)->id, 2u);
  EXPECT_EQ(bundle.FindBySource(ObservationSource::kAuditor), nullptr);
}

TEST(BundleTest, MeanCenterAveragesBoxes) {
  const auto bundle = MakeBundle(
      0, {MakeObs(1, ObservationSource::kHuman, ObjectClass::kCar, 0, 0, 0),
          MakeObs(2, ObservationSource::kModel, ObjectClass::kCar, 2, 4, 0)});
  const geom::Vec3 center = bundle.MeanCenter();
  EXPECT_DOUBLE_EQ(center.x, 1.0);
  EXPECT_DOUBLE_EQ(center.y, 2.0);
}

TEST(BundleTest, MaxConfidence) {
  const auto bundle = MakeBundle(
      0,
      {MakeObs(1, ObservationSource::kModel, ObjectClass::kCar, 0, 0, 0, 0.4),
       MakeObs(2, ObservationSource::kModel, ObjectClass::kCar, 0, 0, 0,
               0.9)});
  EXPECT_DOUBLE_EQ(bundle.MaxConfidence(), 0.9);
}

TEST(BundleTest, EmptyBundle) {
  const ObservationBundle bundle;
  EXPECT_TRUE(bundle.empty());
  EXPECT_DOUBLE_EQ(bundle.MaxConfidence(), 0.0);
}

// ---------------------------------------------------------------- Track

Track MakeTrack(TrackId id, int num_bundles,
                ObservationSource source = ObservationSource::kModel,
                double confidence = 0.8) {
  Track track(id);
  ObservationId obs_id = id * 1000 + 1;
  for (int b = 0; b < num_bundles; ++b) {
    track.AddBundle(MakeBundle(
        b, {MakeObs(obs_id++, source, ObjectClass::kCar, 10.0 + b, 2, b,
                    confidence)}));
  }
  return track;
}

TEST(TrackTest, BasicAccessors) {
  const Track track = MakeTrack(7, 4);
  EXPECT_EQ(track.id(), 7u);
  EXPECT_EQ(track.size(), 4u);
  EXPECT_EQ(track.TotalObservations(), 4u);
  EXPECT_EQ(track.FirstFrame(), 0);
  EXPECT_EQ(track.LastFrame(), 3);
  EXPECT_NEAR(track.DurationSeconds(), 0.3, 1e-12);
}

TEST(TrackTest, EmptyTrack) {
  const Track track;
  EXPECT_TRUE(track.empty());
  EXPECT_FALSE(track.MajorityClass().has_value());
  EXPECT_FALSE(track.MeanModelConfidence().has_value());
  EXPECT_DOUBLE_EQ(track.DurationSeconds(), 0.0);
}

TEST(TrackTest, HasSource) {
  const Track model_track = MakeTrack(1, 3, ObservationSource::kModel);
  EXPECT_TRUE(model_track.HasSource(ObservationSource::kModel));
  EXPECT_FALSE(model_track.HasSource(ObservationSource::kHuman));
}

TEST(TrackTest, MajorityClassPicksMostCommon) {
  Track track(1);
  track.AddBundle(MakeBundle(0, {MakeObs(1, ObservationSource::kHuman,
                                         ObjectClass::kTruck, 0, 0, 0)}));
  track.AddBundle(MakeBundle(1, {MakeObs(2, ObservationSource::kHuman,
                                         ObjectClass::kCar, 0, 0, 1)}));
  track.AddBundle(MakeBundle(2, {MakeObs(3, ObservationSource::kHuman,
                                         ObjectClass::kTruck, 0, 0, 2)}));
  EXPECT_EQ(track.MajorityClass(), ObjectClass::kTruck);
}

TEST(TrackTest, MeanModelConfidence) {
  Track track(1);
  track.AddBundle(MakeBundle(
      0, {MakeObs(1, ObservationSource::kModel, ObjectClass::kCar, 0, 0, 0,
                  0.6),
          MakeObs(2, ObservationSource::kHuman, ObjectClass::kCar, 0, 0,
                  0)}));
  track.AddBundle(MakeBundle(1, {MakeObs(3, ObservationSource::kModel,
                                         ObjectClass::kCar, 0, 0, 1, 0.8)}));
  ASSERT_TRUE(track.MeanModelConfidence().has_value());
  EXPECT_NEAR(*track.MeanModelConfidence(), 0.7, 1e-12);
}

TEST(TrackTest, MinEgoDistance) {
  Track track(1);
  ObservationBundle near = MakeBundle(
      0, {MakeObs(1, ObservationSource::kModel, ObjectClass::kCar, 3, 4, 0)});
  ObservationBundle far = MakeBundle(
      1, {MakeObs(2, ObservationSource::kModel, ObjectClass::kCar, 30, 40,
                  1)});
  track.AddBundle(std::move(near));
  track.AddBundle(std::move(far));
  EXPECT_DOUBLE_EQ(track.MinEgoDistance(), 5.0);
}

TEST(TrackTest, ToStringMentionsClassAndSpan) {
  const Track track = MakeTrack(3, 2);
  const std::string s = track.ToString();
  EXPECT_NE(s.find("car"), std::string::npos);
  EXPECT_NE(s.find("[0..1]"), std::string::npos);
}

// ---------------------------------------------------------- SceneSource

// The in-memory source lends the dataset's own scenes: the pointer is the
// address of dataset.scenes[i], not of a copy, and it owns nothing.
TEST(DatasetSceneSourceTest, DecodeSceneLendsTheDatasetScene) {
  Dataset dataset;
  dataset.scenes.emplace_back("a", 10.0);
  dataset.scenes.emplace_back("b", 10.0);
  const DatasetSceneSource source(dataset);
  ASSERT_EQ(source.scene_count(), 2u);
  for (size_t i = 0; i < dataset.scenes.size(); ++i) {
    const auto lent = source.DecodeScene(i);
    ASSERT_TRUE(lent.ok()) << lent.status();
    EXPECT_EQ(lent->get(), &dataset.scenes[i]);
    EXPECT_EQ(lent->use_count(), 0);
    EXPECT_EQ(source.scene_name(i), dataset.scenes[i].name());
  }
  EXPECT_EQ(source.DecodeScene(2).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace fixy
