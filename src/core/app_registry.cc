#include "core/app_registry.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "core/applications.h"

namespace fixy {

namespace {

std::string JoinNames(const std::vector<AppSpec>& apps) {
  std::string joined;
  for (const AppSpec& app : apps) {
    if (!joined.empty()) joined += ", ";
    joined += app.name;
  }
  return joined;
}

}  // namespace

ApplicationRegistry ApplicationRegistry::Standard() {
  ApplicationRegistry registry;
  // Canonical order: the paper applications in Section 7 order.
  (void)registry.Register(MissingTracksApp());
  (void)registry.Register(MissingObservationsApp());
  (void)registry.Register(ModelErrorsApp());
  return registry;
}

Status ApplicationRegistry::Register(AppSpec app) {
  if (app.name.empty()) {
    return Status::InvalidArgument("application name must be non-empty");
  }
  for (const char c : app.name) {
    if (c == ',' || std::isspace(static_cast<unsigned char>(c))) {
      return Status::InvalidArgument(
          "application name '" + app.name +
          "' must not contain whitespace or commas (--apps splits on them)");
    }
  }
  if (app.build_spec == nullptr || app.extract == nullptr) {
    return Status::InvalidArgument("application '" + app.name +
                                   "' is missing a strategy "
                                   "(build_spec and extract are required)");
  }
  if (Find(app.name) != nullptr) {
    return Status::AlreadyExists("application '" + app.name +
                                 "' is already registered");
  }
  apps_.push_back(std::move(app));
  return Status::Ok();
}

std::vector<std::string> ApplicationRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(apps_.size());
  for (const AppSpec& app : apps_) out.push_back(app.name);
  return out;
}

const AppSpec* ApplicationRegistry::Find(const std::string& name) const {
  for (const AppSpec& app : apps_) {
    if (app.name == name) return &app;
  }
  return nullptr;
}

Result<std::vector<size_t>> ApplicationRegistry::Resolve(
    const std::vector<std::string>& names) const {
  if (names.empty()) {
    return Status::InvalidArgument("no applications requested");
  }
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) {
    const AppSpec* app = Find(name);
    if (app == nullptr) {
      return Status::InvalidArgument("unknown application '" + name +
                                     "' (registered: " + JoinNames(apps_) +
                                     ")");
    }
    const size_t index = static_cast<size_t>(app - apps_.data());
    if (std::find(indices.begin(), indices.end(), index) != indices.end()) {
      return Status::InvalidArgument("application '" + name +
                                     "' requested more than once");
    }
    indices.push_back(index);
  }
  return indices;
}

}  // namespace fixy
