// ApplicationRegistry: the name -> AppSpec table the engine ranks
// against. Standard() seeds the paper's three applications; user
// applications join through Register (FixyOptions::extra_applications)
// and rank end-to-end without touching src/core.
#ifndef FIXY_CORE_APP_REGISTRY_H_
#define FIXY_CORE_APP_REGISTRY_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/app_spec.h"

namespace fixy {

class ApplicationRegistry {
 public:
  /// An empty registry (for tests composing their own application set).
  ApplicationRegistry() = default;

  /// The paper applications, in their canonical order: missing-tracks,
  /// missing-obs, model-errors.
  static ApplicationRegistry Standard();

  /// Registers `app` and builds its metric keys. Errors (the table is
  /// untouched on failure):
  ///  - InvalidArgument: empty name, whitespace or comma in the name
  ///    (--apps splits on commas), or a missing strategy;
  ///  - AlreadyExists: a registered application has the same name.
  Status Register(AppSpec app);

  /// Registered applications, in registration order. Indices into this
  /// vector are what Resolve returns and what the engine caches specs by.
  const std::vector<AppSpec>& apps() const { return apps_; }

  /// Registered names, in registration order.
  std::vector<std::string> names() const;

  /// Zero-touches every registered application's rank.<name>.* keys on
  /// the ambient metrics collector, so a snapshot carries one fixed key
  /// set whichever applications actually ran.
  void RecordMetricsSchema() const;

  /// The registered application named `name`, or nullptr.
  const AppSpec* Find(const std::string& name) const;

  /// Maps requested names to indices into apps(), preserving request
  /// order. Errors: InvalidArgument for an empty request, a duplicated
  /// request entry, or an unknown name — the unknown-name message lists
  /// the registered names (the CLI surfaces it verbatim).
  Result<std::vector<size_t>> Resolve(
      const std::vector<std::string>& names) const;

 private:
  std::vector<AppSpec> apps_;
};

}  // namespace fixy

#endif  // FIXY_CORE_APP_REGISTRY_H_
