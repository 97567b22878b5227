#include "scenario/sweep.h"

#include <cmath>
#include <fstream>
#include <future>
#include <set>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "io/scene_io.h"
#include "obs/metrics.h"
#include "scenario/materialize.h"

namespace fixy::scenario {
namespace {

constexpr char kFormatName[] = "fixy-sweep";
constexpr int kFormatVersion = 1;

/// The ledger kinds an application's proposals claim. The paper
/// applications map by name; an unknown (user-registered) application is
/// scored against whatever kinds its proposals actually carried, in enum
/// order — distinct kinds claim disjoint ledger error types, so the
/// union never double-counts.
std::vector<ProposalKind> ClaimKinds(
    const std::string& app, const std::vector<SceneOutcome>& outcomes) {
  if (app == "missing-tracks") return {ProposalKind::kMissingTrack};
  if (app == "missing-obs") return {ProposalKind::kMissingObservation};
  if (app == "model-errors") return {ProposalKind::kModelError};
  std::set<int> seen;
  for (const SceneOutcome& outcome : outcomes) {
    for (const ErrorProposal& proposal : outcome.proposals) {
      seen.insert(static_cast<int>(proposal.kind));
    }
  }
  std::vector<ProposalKind> kinds;
  for (const int kind : seen) kinds.push_back(static_cast<ProposalKind>(kind));
  return kinds;
}

/// Scores one application's batch against the ledger: per-scene
/// precision@k and recall, accumulated over the cell.
SweepCell ScoreCell(const std::string& scenario, const std::string& app,
                    const BatchReport& report, const sim::GtLedger& ledger,
                    const SweepOptions& options) {
  SweepCell cell;
  cell.scenario = scenario;
  cell.app = app;
  cell.scenes = report.outcomes.size();
  const std::vector<ProposalKind> kinds = ClaimKinds(app, report.outcomes);
  for (const SceneOutcome& outcome : report.outcomes) {
    cell.proposals += outcome.proposals.size();
    for (const ProposalKind kind : kinds) {
      const std::vector<const sim::GtError*> claimable =
          eval::ClaimableErrors(ledger, kind, outcome.scene_name);
      cell.claimable += claimable.size();
      const eval::PrecisionResult precision = eval::PrecisionAtK(
          outcome.proposals, claimable, options.top_k, options.match);
      cell.hits += precision.hits;
      cell.considered += precision.considered;
      const eval::RecallResult recall =
          eval::RecallOf(outcome.proposals, claimable, options.match);
      cell.found += recall.found;
    }
  }
  cell.precision_at_k =
      cell.considered == 0
          ? 0.0
          : static_cast<double>(cell.hits) / static_cast<double>(cell.considered);
  cell.recall = cell.claimable == 0 ? 0.0
                                    : static_cast<double>(cell.found) /
                                          static_cast<double>(cell.claimable);
  return cell;
}

/// All of one scenario's cells (one per application, in request order).
Result<std::vector<SweepCell>> RunScenario(const ScenarioSpec& spec,
                                           const SweepOptions& options) {
  sim::GeneratedDataset data;
  if (options.cache_dir.empty()) {
    FIXY_ASSIGN_OR_RETURN(
        data, GenerateScenarioDataset(spec, options.scenes_per_cell,
                                      options.seed));
  } else {
    MaterializeOptions materialize;
    materialize.scene_count = options.scenes_per_cell;
    materialize.seed = options.seed;
    materialize.reuse = true;
    FIXY_ASSIGN_OR_RETURN(
        MaterializedDataset on_disk,
        MaterializeScenarioDataset(spec, options.cache_dir + "/" + spec.name,
                                   materialize));
    data = std::move(on_disk.data);
  }

  Fixy fixy(options.engine);
  FIXY_RETURN_IF_ERROR(fixy.Learn(data.dataset));
  BatchOptions batch;
  batch.num_threads = 1;  // Parallelism lives at the scenario level.
  batch.fail_fast = true;
  const DatasetSceneSource source(data.dataset);
  FIXY_ASSIGN_OR_RETURN(const MultiAppReport ranked,
                        fixy.RankDatasetStreaming(source, options.apps, batch));

  std::vector<SweepCell> cells;
  for (size_t a = 0; a < ranked.apps.size(); ++a) {
    cells.push_back(ScoreCell(spec.name, ranked.apps[a], ranked.reports[a],
                              data.ledger, options));
  }
  return cells;
}

void AppendCellJson(json::Array* cells, const SweepCell& cell) {
  json::Object out;
  out["scenario"] = cell.scenario;
  out["app"] = cell.app;
  out["scenes"] = static_cast<int64_t>(cell.scenes);
  out["claimable"] = static_cast<int64_t>(cell.claimable);
  out["proposals"] = static_cast<int64_t>(cell.proposals);
  out["hits"] = static_cast<int64_t>(cell.hits);
  out["considered"] = static_cast<int64_t>(cell.considered);
  out["precision_at_k"] = cell.precision_at_k;
  out["found"] = static_cast<int64_t>(cell.found);
  out["recall"] = cell.recall;
  cells->push_back(std::move(out));
}

Result<size_t> ReadCount(const json::Value& object, const std::string& key,
                         const std::string& path) {
  const json::Value* member = object.Find(key);
  if (member == nullptr || !member->is_number()) {
    return Status::InvalidArgument(path + "." + key +
                                   ": expected a number");
  }
  const double value = member->AsDouble();
  if (!std::isfinite(value) || value < 0 || value != std::floor(value)) {
    return Status::InvalidArgument(path + "." + key +
                                   ": expected a non-negative integer");
  }
  return static_cast<size_t>(value);
}

Result<double> ReadFraction(const json::Value& object, const std::string& key,
                            const std::string& path) {
  const json::Value* member = object.Find(key);
  if (member == nullptr || !member->is_number()) {
    return Status::InvalidArgument(path + "." + key +
                                   ": expected a number");
  }
  const double value = member->AsDouble();
  if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
    return Status::InvalidArgument(path + "." + key +
                                   ": expected a fraction in [0, 1]");
  }
  return value;
}

Result<std::string> ReadString(const json::Value& object,
                               const std::string& key,
                               const std::string& path) {
  const json::Value* member = object.Find(key);
  if (member == nullptr || !member->is_string()) {
    return Status::InvalidArgument(path + "." + key +
                                   ": expected a string");
  }
  return member->AsString();
}

Result<std::vector<std::string>> ReadStringArray(const json::Value& object,
                                                 const std::string& key,
                                                 const std::string& path) {
  const json::Value* member = object.Find(key);
  if (member == nullptr || !member->is_array()) {
    return Status::InvalidArgument(path + "." + key + ": expected an array");
  }
  std::vector<std::string> out;
  for (const json::Value& item : member->AsArray()) {
    if (!item.is_string()) {
      return Status::InvalidArgument(path + "." + key +
                                     ": expected an array of strings");
    }
    out.push_back(item.AsString());
  }
  return out;
}

}  // namespace

Result<SweepReport> RunSweep(const std::vector<ScenarioSpec>& specs,
                             const SweepOptions& options) {
  if (specs.empty()) {
    return Status::InvalidArgument("sweep needs at least one scenario");
  }
  if (options.apps.empty()) {
    return Status::InvalidArgument("sweep needs at least one application");
  }
  if (options.top_k == 0) {
    return Status::InvalidArgument("sweep top_k must be >= 1");
  }
  std::set<std::string> names;
  for (const ScenarioSpec& spec : specs) {
    if (!names.insert(spec.name).second) {
      return Status::InvalidArgument("duplicate scenario name \"" + spec.name +
                                     "\" in sweep grid");
    }
  }

  const obs::ScopedStageTimer timer("sweep.total");

  // One slot per scenario: workers write only their own slot, results
  // merge in scenario order, so the report is byte-identical at every
  // thread count.
  std::vector<Result<std::vector<SweepCell>>> slots(
      specs.size(), Result<std::vector<SweepCell>>(std::vector<SweepCell>{}));
  {
    ThreadPool pool(ThreadPool::ResolveThreadCount(options.threads));
    std::vector<std::future<void>> pending;
    for (size_t i = 0; i < specs.size(); ++i) {
      pending.push_back(pool.Submit([&specs, &options, &slots, i] {
        slots[i] = RunScenario(specs[i], options);
      }));
    }
    for (std::future<void>& f : pending) f.get();
  }

  SweepReport report;
  report.top_k = options.top_k;
  for (const ScenarioSpec& spec : specs) report.scenarios.push_back(spec.name);
  for (size_t i = 0; i < specs.size(); ++i) {
    // First failure in scenario order, regardless of completion order.
    FIXY_RETURN_IF_ERROR(slots[i].status());
    for (SweepCell& cell : *slots[i]) {
      report.cells.push_back(std::move(cell));
    }
  }
  // Every scenario ranked the same resolved app list; take it from the
  // first scenario's cells.
  for (size_t a = 0; a < options.apps.size(); ++a) {
    report.apps.push_back(report.cells[a].app);
  }

  obs::Count("sweep.scenarios", static_cast<uint64_t>(specs.size()));
  obs::Count("sweep.cells", static_cast<uint64_t>(report.cells.size()));
  return report;
}

json::Value SweepReportToJson(const SweepReport& report) {
  json::Object root;
  root["format"] = kFormatName;
  root["version"] = kFormatVersion;
  json::Array scenarios;
  for (const std::string& name : report.scenarios) scenarios.push_back(name);
  root["scenarios"] = std::move(scenarios);
  json::Array apps;
  for (const std::string& name : report.apps) apps.push_back(name);
  root["apps"] = std::move(apps);
  root["top_k"] = static_cast<int64_t>(report.top_k);
  json::Array cells;
  for (const SweepCell& cell : report.cells) AppendCellJson(&cells, cell);
  root["cells"] = std::move(cells);
  return root;
}

Result<SweepReport> SweepReportFromJson(const json::Value& value) {
  if (!value.is_object()) {
    return Status::InvalidArgument("sweep report: expected an object");
  }
  FIXY_ASSIGN_OR_RETURN(const std::string format,
                        ReadString(value, "format", "sweep report"));
  if (format != kFormatName) {
    return Status::InvalidArgument("sweep report: format is \"" + format +
                                   "\", expected \"" + kFormatName + "\"");
  }
  FIXY_ASSIGN_OR_RETURN(const size_t version,
                        ReadCount(value, "version", "sweep report"));
  if (version != static_cast<size_t>(kFormatVersion)) {
    return Status::InvalidArgument(
        StrFormat("sweep report: unsupported version %zu (this build reads "
                  "version %d)",
                  version, kFormatVersion));
  }

  SweepReport report;
  FIXY_ASSIGN_OR_RETURN(report.scenarios,
                        ReadStringArray(value, "scenarios", "sweep report"));
  FIXY_ASSIGN_OR_RETURN(report.apps,
                        ReadStringArray(value, "apps", "sweep report"));
  FIXY_ASSIGN_OR_RETURN(report.top_k,
                        ReadCount(value, "top_k", "sweep report"));

  const json::Value* cells = value.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return Status::InvalidArgument("sweep report.cells: expected an array");
  }
  size_t index = 0;
  for (const json::Value& item : cells->AsArray()) {
    const std::string path = StrFormat("sweep report.cells[%zu]", index);
    if (!item.is_object()) {
      return Status::InvalidArgument(path + ": expected an object");
    }
    SweepCell cell;
    FIXY_ASSIGN_OR_RETURN(cell.scenario, ReadString(item, "scenario", path));
    FIXY_ASSIGN_OR_RETURN(cell.app, ReadString(item, "app", path));
    FIXY_ASSIGN_OR_RETURN(cell.scenes, ReadCount(item, "scenes", path));
    FIXY_ASSIGN_OR_RETURN(cell.claimable, ReadCount(item, "claimable", path));
    FIXY_ASSIGN_OR_RETURN(cell.proposals, ReadCount(item, "proposals", path));
    FIXY_ASSIGN_OR_RETURN(cell.hits, ReadCount(item, "hits", path));
    FIXY_ASSIGN_OR_RETURN(cell.considered,
                          ReadCount(item, "considered", path));
    FIXY_ASSIGN_OR_RETURN(cell.precision_at_k,
                          ReadFraction(item, "precision_at_k", path));
    FIXY_ASSIGN_OR_RETURN(cell.found, ReadCount(item, "found", path));
    FIXY_ASSIGN_OR_RETURN(cell.recall, ReadFraction(item, "recall", path));
    report.cells.push_back(std::move(cell));
    ++index;
  }
  return report;
}

Status SaveSweepReport(const SweepReport& report, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << json::Write(SweepReportToJson(report), /*pretty=*/true) << "\n";
  out.close();
  if (!out.good()) return Status::IoError("failed writing: " + path);
  return Status::Ok();
}

Result<SweepReport> LoadSweepReport(const std::string& path) {
  std::string text;
  FIXY_RETURN_IF_ERROR(io::ReadFileInto(path, &text));
  const Result<json::Value> parsed = json::Parse(text);
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   std::string(parsed.status().message()));
  }
  Result<SweepReport> report = SweepReportFromJson(*parsed);
  if (!report.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   std::string(report.status().message()));
  }
  return report;
}

std::string FormatSweepTable(const SweepReport& report) {
  eval::Table table({"scenario", "app", "scenes", "claimable", "proposals",
                     StrFormat("p@%zu", report.top_k), "recall"});
  for (const SweepCell& cell : report.cells) {
    table.AddRow({cell.scenario, cell.app, StrFormat("%zu", cell.scenes),
                  StrFormat("%zu", cell.claimable),
                  StrFormat("%zu", cell.proposals),
                  StrFormat("%.3f (%zu/%zu)", cell.precision_at_k, cell.hits,
                            cell.considered),
                  StrFormat("%.3f (%zu/%zu)", cell.recall, cell.found,
                            cell.claimable)});
  }
  return table.ToString();
}

std::vector<eval::MetricCell> SweepReportToRows(const SweepReport& report) {
  std::vector<eval::MetricCell> rows;
  for (const SweepCell& cell : report.cells) {
    eval::MetricCell row;
    row.row = cell.RowKey();
    row.values["scenes"] = static_cast<double>(cell.scenes);
    row.values["claimable"] = static_cast<double>(cell.claimable);
    row.values["proposals"] = static_cast<double>(cell.proposals);
    row.values["hits"] = static_cast<double>(cell.hits);
    row.values["considered"] = static_cast<double>(cell.considered);
    row.values["precision_at_k"] = cell.precision_at_k;
    row.values["found"] = static_cast<double>(cell.found);
    row.values["recall"] = cell.recall;
    rows.push_back(std::move(row));
  }
  return rows;
}

eval::CellDiffReport DiffSweepReports(const SweepReport& base,
                                      const SweepReport& current,
                                      double tolerance) {
  eval::CellDiffOptions options;
  options.tolerance = tolerance;
  options.higher_is_better = {"precision_at_k", "recall", "hits", "found"};
  return eval::DiffMetricCells(SweepReportToRows(base),
                               SweepReportToRows(current), options);
}

}  // namespace fixy::scenario
