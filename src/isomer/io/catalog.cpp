#include "isomer/io/catalog.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

namespace isomer {

namespace {

// ---------------------------------------------------------------- writing --

void write_quoted(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

void write_type(std::ostream& out, const AttrType& type) {
  if (const auto* prim = std::get_if<PrimType>(&type)) {
    out << to_string(*prim);
    return;
  }
  const auto& cplx = std::get<ComplexType>(type);
  out << (cplx.multi_valued ? "refset " : "ref ");
  write_quoted(out, cplx.domain_class);
}

void write_value(std::ostream& out, const Value& v) {
  switch (v.kind()) {
    case ValueKind::Bool:
      out << "bool " << (v.as_bool() ? "true" : "false");
      return;
    case ValueKind::Int:
      out << "int " << v.as_int();
      return;
    case ValueKind::Real:
      out << "real " << std::setprecision(17) << v.as_real();
      return;
    case ValueKind::String:
      out << "str ";
      write_quoted(out, v.as_string());
      return;
    case ValueKind::LocalRef:
      out << "ref " << v.as_local_ref().local;
      return;
    case ValueKind::LocalRefSet: {
      out << "refset";
      for (const LOid& target : v.as_local_ref_set()) out << " " << target.local;
      return;
    }
    default:
      throw CatalogError("value kind " + std::string(to_string(v.kind())) +
                         " is not storable in a catalog");
  }
}

void write_database(std::ostream& out, const ComponentDatabase& db) {
  out << "database " << db.db().value() << " ";
  write_quoted(out, db.schema().db_name());
  out << "\n";

  for (const ClassDef& cls : db.schema().classes()) {
    out << "class ";
    write_quoted(out, cls.name());
    out << "\n";
    for (const AttrDef& attr : cls.attributes()) {
      out << "  attr ";
      write_quoted(out, attr.name);
      out << " ";
      write_type(out, attr.type);
      out << "\n";
    }
    if (cls.identity_attribute()) {
      out << "  identity ";
      write_quoted(out, *cls.identity_attribute());
      out << "\n";
    }
  }

  // Objects across all classes, in ascending LOid order, so reloading
  // through the sequential allocator reproduces the identifiers.
  struct Entry {
    const Object* object;
    const ClassDef* cls;
  };
  std::vector<Entry> entries;
  for (const ClassDef& cls : db.schema().classes())
    for (const Object& obj : db.extent(cls.name()).objects())
      entries.push_back(Entry{&obj, &cls});
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              return a.object->id().local < b.object->id().local;
            });
  for (const Entry& entry : entries) {
    out << "object ";
    write_quoted(out, entry.cls->name());
    out << " " << entry.object->id().local << "\n";
    for (std::size_t a = 0; a < entry.cls->attribute_count(); ++a) {
      const Value& v = entry.object->value(a);
      if (v.is_null()) continue;
      out << "  ";
      write_quoted(out, entry.cls->attribute(a).name);
      out << " = ";
      write_value(out, v);
      out << "\n";
    }
  }
  out << "end database\n";
}

void write_global(std::ostream& out, const GlobalSchema& schema) {
  for (const GlobalClass& cls : schema.classes()) {
    out << "global ";
    write_quoted(out, cls.name());
    out << "\n";
    for (const AttrDef& attr : cls.def().attributes()) {
      out << "  attr ";
      write_quoted(out, attr.name);
      out << " ";
      write_type(out, attr.type);
      out << "\n";
    }
    if (cls.def().identity_attribute()) {
      out << "  identity ";
      write_quoted(out, *cls.def().identity_attribute());
      out << "\n";
    }
    for (std::size_t c = 0; c < cls.constituents().size(); ++c) {
      const Constituent& constituent = cls.constituents()[c];
      out << "  constituent " << constituent.db.value() << " ";
      write_quoted(out, constituent.local_class);
      out << "\n";
      for (std::size_t a = 0; a < cls.def().attribute_count(); ++a) {
        if (const auto& local = cls.local_attr(c, a)) {
          out << "    bind ";
          write_quoted(out, cls.def().attribute(a).name);
          out << " ";
          write_quoted(out, *local);
          out << "\n";
        }
      }
    }
  }
}

void write_entities(std::ostream& out, const GoidTable& goids) {
  for (std::size_t i = 0; i < goids.entity_count(); ++i) {
    const GOid entity{static_cast<std::uint64_t>(i + 1)};
    out << "entity ";
    write_quoted(out, goids.class_of(entity));
    for (const LOid& isomer : goids.isomers_of(entity))
      out << " " << isomer.db.value() << ":" << isomer.local;
    out << "\n";
  }
}

// ---------------------------------------------------------------- reading --

/// Whitespace-separated tokens with quoted strings; `"..."` tokens are
/// marked so "42" (a string) and 42 (a number) stay distinct.
struct Tok {
  std::string text;
  bool quoted = false;
};

std::vector<Tok> tokenize(const std::string& line, std::size_t line_no) {
  std::vector<Tok> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '#') break;  // comment
    if (c == '"') {
      std::string text;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) ++i;
        text += line[i++];
      }
      if (i >= line.size())
        throw CatalogError("line " + std::to_string(line_no) +
                           ": unterminated string");
      ++i;
      tokens.push_back(Tok{std::move(text), true});
      continue;
    }
    std::size_t j = i;
    while (j < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[j])) &&
           line[j] != '"')
      ++j;
    tokens.push_back(Tok{line.substr(i, j - i), false});
    i = j;
  }
  return tokens;
}

[[noreturn]] void bad(std::size_t line_no, const std::string& message) {
  throw CatalogError("line " + std::to_string(line_no) + ": " + message);
}

/// Parses an id token: decimal digits only (no sign, no space), at most the
/// largest `Id`. Ids size the GOid table's arrays, so they are checked here
/// rather than wrapped by a narrowing cast.
template <typename Id>
Id parse_id(std::string_view text, std::size_t line_no) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end ||
      value > std::numeric_limits<Id>::max())
    bad(line_no, "bad id '" + std::string(text) + "' (expected 0.." +
                     std::to_string(std::numeric_limits<Id>::max()) + ")");
  return static_cast<Id>(value);
}

class Loader {
 public:
  std::unique_ptr<Federation> load(std::istream& in) {
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
      ++line_no;
      const std::vector<Tok> tokens = tokenize(line, line_no);
      if (tokens.empty()) continue;
      // Value parsing (stoll/stod) and missing fields (at()) raise the
      // standard exceptions; report them as catalog errors on this line.
      try {
        dispatch(tokens, line_no);
      } catch (const std::invalid_argument& e) {
        bad(line_no, std::string("malformed value (") + e.what() + ")");
      } catch (const std::out_of_range& e) {
        bad(line_no, std::string("missing field or value out of range (") +
                         e.what() + ")");
      }
    }
    finish_database();
    flush_global(line_no + 1);
    std::vector<std::unique_ptr<ComponentDatabase>> databases;
    for (auto& [id, db] : databases_) databases.push_back(std::move(db));
    return std::make_unique<Federation>(std::move(global_), std::move(databases),
                                        std::move(goids_));
  }

 private:
  void dispatch(const std::vector<Tok>& t, std::size_t line_no) {
    const std::string& head = t[0].text;
    if (t[0].quoted) {  // a value line inside an object
      object_value(t, line_no);
      return;
    }
    if (head == "database") return begin_database(t, line_no);
    if (head == "class") return begin_class(t, line_no);
    if (head == "attr") return route_attr(t, line_no);
    if (head == "identity") return route_identity(t, line_no);
    if (head == "object") return begin_object(t, line_no);
    if (head == "end") return finish_database();
    if (head == "global") {
      flush_global(line_no);
      return begin_global(t, line_no);
    }
    if (head == "constituent") return add_constituent(t, line_no);
    if (head == "bind") return add_binding(t, line_no);
    if (head == "entity") return add_entity(t, line_no);
    bad(line_no, "unknown directive '" + head + "'");
  }

  AttrType parse_type(const std::vector<Tok>& t, std::size_t from,
                      std::size_t line_no) {
    const std::string& word = t.at(from).text;
    if (word == "bool") return PrimType::Bool;
    if (word == "int") return PrimType::Int;
    if (word == "real") return PrimType::Real;
    if (word == "string") return PrimType::String;
    if (word == "ref" || word == "refset") {
      if (from + 1 >= t.size()) bad(line_no, "ref needs a domain class");
      return ComplexType{t[from + 1].text, word == "refset"};
    }
    bad(line_no, "unknown attribute type '" + word + "'");
  }

  // --- component databases ---

  void begin_database(const std::vector<Tok>& t, std::size_t line_no) {
    finish_database();
    if (t.size() < 3) bad(line_no, "database needs an id and a name");
    current_db_id_ = DbId{parse_id<std::uint16_t>(t[1].text, line_no)};
    building_schema_ = ComponentSchema(current_db_id_, t[2].text);
    in_database_ = true;
    schema_done_ = false;
  }

  void begin_class(const std::vector<Tok>& t, std::size_t line_no) {
    if (!in_database_ || schema_done_) bad(line_no, "class outside a database");
    current_class_ = &building_schema_.add_class(t.at(1).text);
  }

  void route_attr(const std::vector<Tok>& t, std::size_t line_no) {
    const AttrType type = parse_type(t, 2, line_no);
    if (buffering_global_) {
      pending_attrs_.emplace_back(t.at(1).text, type);
      return;
    }
    if (current_class_ == nullptr) bad(line_no, "attr outside a class");
    current_class_->add_attribute(t.at(1).text, type);
  }

  void route_identity(const std::vector<Tok>& t, std::size_t line_no) {
    if (buffering_global_) {
      pending_identity_ = t.at(1).text;
      return;
    }
    if (current_class_ == nullptr) bad(line_no, "identity outside a class");
    current_class_->set_identity_attribute(t.at(1).text);
  }

  void ensure_store(std::size_t line_no) {
    if (!in_database_) bad(line_no, "object outside a database");
    if (!schema_done_) {
      building_schema_.validate();
      const auto [it, inserted] = databases_.emplace(
          current_db_id_.value(),
          std::make_unique<ComponentDatabase>(building_schema_));
      if (!inserted) bad(line_no, "duplicate database id");
      current_store_ = it->second.get();
      schema_done_ = true;
    }
  }

  void begin_object(const std::vector<Tok>& t, std::size_t line_no) {
    ensure_store(line_no);
    const auto declared = parse_id<std::uint32_t>(t.at(2).text, line_no);
    const LOid assigned = current_store_->insert(t.at(1).text);
    if (assigned.local != declared)
      bad(line_no, "object ids must appear in allocation order (expected " +
                       std::to_string(assigned.local) + ", declared " +
                       std::to_string(declared) + ")");
    current_object_ = assigned;
  }

  void object_value(const std::vector<Tok>& t, std::size_t line_no) {
    if (current_store_ == nullptr) bad(line_no, "value line outside an object");
    if (t.size() < 3 || t[1].text != "=") bad(line_no, "expected \"attr\" = ...");
    const std::string& kind = t[2].text;
    Value value;
    if (kind == "bool") {
      value = Value(t.at(3).text == "true");
    } else if (kind == "int") {
      value = Value(static_cast<std::int64_t>(std::stoll(t.at(3).text)));
    } else if (kind == "real") {
      value = Value(std::stod(t.at(3).text));
    } else if (kind == "str") {
      value = Value(t.at(3).text);
    } else if (kind == "ref") {
      value = Value(LocalRef{
          LOid{current_db_id_, parse_id<std::uint32_t>(t.at(3).text, line_no)}});
    } else if (kind == "refset") {
      LocalRefSet set;
      for (std::size_t i = 3; i < t.size(); ++i)
        set.targets.push_back(
            LOid{current_db_id_, parse_id<std::uint32_t>(t[i].text, line_no)});
      value = Value(std::move(set));
    } else {
      bad(line_no, "unknown value kind '" + kind + "'");
    }
    current_store_->set_attribute(current_object_, t[0].text,
                                  std::move(value));
  }

  void finish_database() {
    if (in_database_ && !schema_done_) {
      // A database with a schema but no objects still needs its store.
      building_schema_.validate();
      databases_.emplace(current_db_id_.value(),
                         std::make_unique<ComponentDatabase>(building_schema_));
    }
    in_database_ = false;
    current_class_ = nullptr;
    current_store_ = nullptr;
  }

  // --- global schema ---

  void begin_global(const std::vector<Tok>& t, std::size_t line_no) {
    finish_database();
    pending_global_name_ = t.at(1).text;
    pending_attrs_.clear();
    pending_identity_.reset();
    pending_constituents_.clear();
    pending_bindings_.clear();
    // Construction is deferred until the whole section has been read:
    // attrs/identity/constituents/bindings are buffered and flushed when
    // the next section begins.
    buffering_global_ = true;
    (void)line_no;
  }

  void add_constituent(const std::vector<Tok>& t, std::size_t line_no) {
    if (!buffering_global_) bad(line_no, "constituent outside a global class");
    pending_constituents_.push_back(
        Constituent{DbId{parse_id<std::uint16_t>(t.at(1).text, line_no)},
                    t.at(2).text});
    pending_bindings_.emplace_back();
  }

  void add_binding(const std::vector<Tok>& t, std::size_t line_no) {
    if (pending_bindings_.empty()) bad(line_no, "bind outside a constituent");
    pending_bindings_.back().emplace_back(t.at(1).text, t.at(2).text);
  }

  void add_entity(const std::vector<Tok>& t, std::size_t line_no) {
    flush_global(line_no);
    std::vector<LOid> isomers;
    for (std::size_t i = 2; i < t.size(); ++i) {
      const std::string& pair = t[i].text;
      const std::size_t colon = pair.find(':');
      if (colon == std::string::npos) bad(line_no, "entity pairs are db:loid");
      const std::string_view text = pair;
      const LOid isomer{
          DbId{parse_id<std::uint16_t>(text.substr(0, colon), line_no)},
          parse_id<std::uint32_t>(text.substr(colon + 1), line_no)};
      // Only loaded objects reach the GOid table, whose arrays are sized by
      // the ids it maps.
      const auto db = databases_.find(isomer.db.value());
      if (db == databases_.end() || db->second->fetch(isomer) == nullptr)
        bad(line_no, "entity names " + to_string(isomer) +
                         ", which is not a loaded object");
      isomers.push_back(isomer);
    }
    if (isomers.empty()) bad(line_no, "entity needs at least one object");
    (void)goids_.register_entity(t.at(1).text, isomers);
  }

  /// Materializes the buffered global class (called when the section ends).
  void flush_global(std::size_t line_no) {
    if (!buffering_global_) return;
    if (pending_constituents_.empty())
      bad(line_no, "global class without constituents");
    GlobalClass cls(pending_global_name_, pending_constituents_);
    for (const auto& [name, type] : pending_attrs_)
      cls.mutable_def().add_attribute(name, type);
    cls.pad_local_names();
    for (std::size_t c = 0; c < pending_bindings_.size(); ++c)
      for (const auto& [global_attr, local_attr] : pending_bindings_[c]) {
        const auto index = cls.def().find_attribute(global_attr);
        if (!index) bad(line_no, "bind references unknown attribute");
        cls.bind_local_attr(c, *index, local_attr);
      }
    if (pending_identity_)
      cls.mutable_def().set_identity_attribute(*pending_identity_);
    global_.add_class(std::move(cls));
    buffering_global_ = false;
  }


  std::map<std::uint16_t, std::unique_ptr<ComponentDatabase>> databases_;
  ComponentSchema building_schema_;
  ComponentDatabase* current_store_ = nullptr;
  ClassDef* current_class_ = nullptr;
  DbId current_db_id_{};
  LOid current_object_{};
  bool in_database_ = false;
  bool schema_done_ = false;

  bool buffering_global_ = false;
  std::string pending_global_name_;
  std::vector<std::pair<std::string, AttrType>> pending_attrs_;
  std::optional<std::string> pending_identity_;
  std::vector<Constituent> pending_constituents_;
  std::vector<std::vector<std::pair<std::string, std::string>>>
      pending_bindings_;

  GlobalSchema global_;
  GoidTable goids_;
};

}  // namespace

void save_catalog(const Federation& federation, std::ostream& out) {
  out << "# isomer catalog v1\n";
  for (const DbId db : federation.db_ids())
    write_database(out, federation.db(db));
  write_global(out, federation.schema());
  write_entities(out, federation.goids());
}

std::string save_catalog(const Federation& federation) {
  std::ostringstream out;
  save_catalog(federation, out);
  return out.str();
}

std::unique_ptr<Federation> load_catalog(std::istream& in) {
  Loader loader;
  return loader.load(in);
}

std::unique_ptr<Federation> load_catalog(std::string_view text) {
  std::istringstream in{std::string(text)};
  return load_catalog(in);
}

void save_catalog_file(const Federation& federation, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw CatalogError("cannot open " + path + " for writing");
  save_catalog(federation, out);
  if (!out) throw CatalogError("failed writing " + path);
}

std::unique_ptr<Federation> load_catalog_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CatalogError("cannot open " + path);
  return load_catalog(in);
}

}  // namespace isomer
