// The integrated global schema.
//
// Schema integration (paper §1, following the authors' earlier work [13,14])
// groups semantically equivalent classes of different component databases
// into *global classes*. A global class's attributes are the set union of
// its constituent classes' attributes; an attribute a constituent class does
// not define is a *missing attribute* of that constituent — the primary
// source of missing data.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "isomer/common/ids.hpp"
#include "isomer/objmodel/class_def.hpp"
#include "isomer/objmodel/path.hpp"

namespace isomer {

/// One constituent class of a global class.
struct Constituent {
  DbId db;
  std::string local_class;

  friend bool operator==(const Constituent&, const Constituent&) = default;
};

/// A class of the global schema. The embedded ClassDef uses *global* names
/// throughout: complex attribute domains name global classes.
class GlobalClass {
 public:
  GlobalClass(std::string name, std::vector<Constituent> constituents)
      : def_(std::move(name)), constituents_(std::move(constituents)),
        local_names_(constituents_.size()) {}

  [[nodiscard]] const std::string& name() const noexcept {
    return def_.name();
  }
  [[nodiscard]] const ClassDef& def() const noexcept { return def_; }
  [[nodiscard]] const std::vector<Constituent>& constituents() const noexcept {
    return constituents_;
  }

  /// Index of this global class's constituent in database `db` (at most one
  /// constituent per database), or nullopt when `db` does not participate.
  [[nodiscard]] std::optional<std::size_t> constituent_in(
      DbId db) const noexcept;

  /// The local attribute name implementing global attribute `attr_index` in
  /// constituent `constituent_index`, or nullopt when that constituent holds
  /// the attribute as missing.
  [[nodiscard]] const std::optional<std::string>& local_attr(
      std::size_t constituent_index, std::size_t attr_index) const;

  /// True when the constituent does not define the global attribute — the
  /// paper's "constituent class C holds the missing attribute".
  [[nodiscard]] bool is_missing(std::size_t constituent_index,
                                std::size_t attr_index) const {
    return !local_attr(constituent_index, attr_index).has_value();
  }

  /// Names of the global attributes missing in the given constituent.
  [[nodiscard]] std::vector<std::string> missing_attributes(
      std::size_t constituent_index) const;

  /// Construction API (used by the Integrator).
  ClassDef& mutable_def() noexcept { return def_; }
  void bind_local_attr(std::size_t constituent_index, std::size_t attr_index,
                       std::string local_name);
  void pad_local_names();

 private:
  ClassDef def_;
  std::vector<Constituent> constituents_;
  /// local_names_[c][a]: local name of global attribute a in constituent c.
  std::vector<std::vector<std::optional<std::string>>> local_names_;
};

/// Result of translating a global path into one component database's local
/// attribute names.
struct PathTranslation {
  /// Local-name steps translated so far. Complete when `missing_at` is
  /// empty; otherwise covers exactly the steps before the missing one.
  PathExpr local;
  /// Step index (into the global path) at which the constituent holds the
  /// attribute as missing; empty when the whole path translates.
  std::optional<std::size_t> missing_at;

  [[nodiscard]] bool complete() const noexcept {
    return !missing_at.has_value();
  }
};

/// One step of a global path resolved against the global schema: the class
/// whose attribute the step reads and that attribute's index in its
/// definition. The class is static — the object model has no subclassing —
/// so every object reached at a step belongs to it.
struct GlobalStep {
  const GlobalClass* cls = nullptr;
  std::size_t attr = 0;
};

/// The integrated global schema: global classes plus the reverse mapping
/// from (database, local class) to global class.
class GlobalSchema {
 public:
  /// Adds a global class; throws SchemaError on duplicate names or when a
  /// constituent already belongs to another global class.
  GlobalClass& add_class(GlobalClass cls);

  [[nodiscard]] const GlobalClass& cls(std::string_view name) const;
  [[nodiscard]] const GlobalClass* find_class(
      std::string_view name) const noexcept;
  [[nodiscard]] const std::vector<GlobalClass>& classes() const noexcept {
    return classes_;
  }

  /// Global class that the given local class is a constituent of; nullptr
  /// when the local class was not integrated.
  [[nodiscard]] const GlobalClass* global_class_of(
      DbId db, std::string_view local_class) const noexcept;

  /// Class lookup over global class definitions, for resolve_path().
  [[nodiscard]] ClassLookup lookup() const;

  /// Resolves a global-name path rooted at `global_class` step by step;
  /// throws QueryError, as resolve_path() does, when the path is malformed.
  [[nodiscard]] std::vector<GlobalStep> resolve_steps(
      std::string_view global_class, const PathExpr& path) const;

  /// Translates a global-name path rooted at `global_class` into the local
  /// attribute names of database `db`. Requires that `db` has a constituent
  /// of `global_class`; throws QueryError when the path does not resolve
  /// against the global schema.
  [[nodiscard]] PathTranslation translate_path(std::string_view global_class,
                                               const PathExpr& path,
                                               DbId db) const;

 private:
  std::vector<GlobalClass> classes_;
  std::unordered_map<std::string, std::size_t> by_name_;
  /// key: "<db>/<local class>"
  std::unordered_map<std::string, std::size_t> reverse_;
};

std::ostream& operator<<(std::ostream& os, const GlobalSchema& schema);

}  // namespace isomer
