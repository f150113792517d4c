#include "isomer/schema/global_schema.hpp"

#include "isomer/common/error.hpp"

namespace isomer {

namespace {

std::string reverse_key(DbId db, std::string_view local_class) {
  return std::to_string(db.value()) + "/" + std::string(local_class);
}

}  // namespace

std::optional<std::size_t> GlobalClass::constituent_in(
    DbId db) const noexcept {
  for (std::size_t i = 0; i < constituents_.size(); ++i)
    if (constituents_[i].db == db) return i;
  return std::nullopt;
}

const std::optional<std::string>& GlobalClass::local_attr(
    std::size_t constituent_index, std::size_t attr_index) const {
  expects(constituent_index < local_names_.size(),
          "GlobalClass::local_attr constituent index out of range");
  const auto& names = local_names_[constituent_index];
  expects(attr_index < names.size(),
          "GlobalClass::local_attr attribute index out of range");
  return names[attr_index];
}

std::vector<std::string> GlobalClass::missing_attributes(
    std::size_t constituent_index) const {
  std::vector<std::string> missing;
  for (std::size_t a = 0; a < def_.attribute_count(); ++a)
    if (is_missing(constituent_index, a))
      missing.push_back(def_.attribute(a).name);
  return missing;
}

void GlobalClass::bind_local_attr(std::size_t constituent_index,
                                  std::size_t attr_index,
                                  std::string local_name) {
  expects(constituent_index < local_names_.size(),
          "GlobalClass::bind_local_attr constituent index out of range");
  auto& names = local_names_[constituent_index];
  if (names.size() <= attr_index) names.resize(def_.attribute_count());
  expects(attr_index < names.size(),
          "GlobalClass::bind_local_attr attribute index out of range");
  names[attr_index] = std::move(local_name);
}

void GlobalClass::pad_local_names() {
  for (auto& names : local_names_) names.resize(def_.attribute_count());
}

GlobalClass& GlobalSchema::add_class(GlobalClass cls) {
  if (find_class(cls.name()) != nullptr)
    throw SchemaError("global schema already defines class " + cls.name());
  for (const Constituent& constituent : cls.constituents()) {
    const auto key = reverse_key(constituent.db, constituent.local_class);
    if (reverse_.find(key) != reverse_.end())
      throw SchemaError("class " + constituent.local_class + " of DB" +
                        std::to_string(constituent.db.value()) +
                        " is already a constituent of another global class");
  }
  const std::size_t index = classes_.size();
  by_name_.emplace(cls.name(), index);
  for (const Constituent& constituent : cls.constituents())
    reverse_.emplace(reverse_key(constituent.db, constituent.local_class),
                     index);
  classes_.push_back(std::move(cls));
  return classes_.back();
}

const GlobalClass& GlobalSchema::cls(std::string_view name) const {
  const GlobalClass* found = find_class(name);
  if (found == nullptr)
    throw SchemaError("global schema has no class " + std::string(name));
  return *found;
}

const GlobalClass* GlobalSchema::find_class(
    std::string_view name) const noexcept {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return nullptr;
  return &classes_[it->second];
}

const GlobalClass* GlobalSchema::global_class_of(
    DbId db, std::string_view local_class) const noexcept {
  const auto it = reverse_.find(reverse_key(db, local_class));
  if (it == reverse_.end()) return nullptr;
  return &classes_[it->second];
}

ClassLookup GlobalSchema::lookup() const {
  return [this](std::string_view name) -> const ClassDef* {
    const GlobalClass* cls = find_class(name);
    return cls == nullptr ? nullptr : &cls->def();
  };
}

std::vector<GlobalStep> GlobalSchema::resolve_steps(
    std::string_view global_class, const PathExpr& path) const {
  const ResolvedPath resolved = resolve_path(lookup(), global_class, path);
  std::vector<GlobalStep> steps;
  steps.reserve(resolved.steps.size());
  for (const ResolvedStep& step : resolved.steps)
    steps.push_back(GlobalStep{&cls(step.class_name), step.attr_index});
  return steps;
}

PathTranslation GlobalSchema::translate_path(std::string_view global_class,
                                             const PathExpr& path,
                                             DbId db) const {
  const std::vector<GlobalStep> steps = resolve_steps(global_class, path);
  PathTranslation result;
  std::vector<std::string> local_steps;
  for (std::size_t step = 0; step < steps.size(); ++step) {
    const GlobalClass& current = *steps[step].cls;
    // A database that does not participate in this branch class at all
    // misses every attribute of it.
    const auto constituent = current.constituent_in(db);
    if (!constituent ||
        current.is_missing(*constituent, steps[step].attr)) {
      result.missing_at = step;
      break;
    }
    local_steps.push_back(*current.local_attr(*constituent, steps[step].attr));
  }
  result.local = PathExpr(std::move(local_steps));
  return result;
}

std::ostream& operator<<(std::ostream& os, const GlobalSchema& schema) {
  os << "global schema\n";
  for (const GlobalClass& cls : schema.classes()) {
    os << "  " << cls.def() << "\n    constituents:";
    for (std::size_t c = 0; c < cls.constituents().size(); ++c) {
      const Constituent& constituent = cls.constituents()[c];
      os << " " << constituent.local_class << "@DB"
         << constituent.db.value();
      const auto missing = cls.missing_attributes(c);
      if (!missing.empty()) {
        os << "(missing:";
        for (const std::string& name : missing) os << " " << name;
        os << ")";
      }
    }
    os << "\n";
  }
  return os;
}

}  // namespace isomer
