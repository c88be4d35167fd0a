// Minimal JSON document model: build, serialize, parse.
//
// The observability layer emits two machine-readable formats — Chrome
// trace_event files and BenchReport results — and the bench_smoke job and
// the tests must re-parse and validate what was written. Rather than bake
// in an external dependency for that round trip, this is a small
// self-contained JSON value type: enough for objects/arrays/strings/
// numbers/bools/null, strict parsing with position-annotated errors, and
// deterministic serialization (object keys keep insertion order).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hpcos {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
// Insertion-ordered object: serialization is deterministic and mirrors the
// order fields were added (schemas stay diffable).
using JsonMember = std::pair<std::string, JsonValue>;

struct JsonParseError : std::runtime_error {
  JsonParseError(const std::string& what, std::size_t offset);
  std::size_t offset = 0;
};

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(std::nullptr_t) : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  JsonValue(std::int64_t i)
      : kind_(Kind::kNumber), num_(static_cast<double>(i)) {}
  JsonValue(std::uint64_t u)
      : kind_(Kind::kNumber), num_(static_cast<double>(u)) {}
  JsonValue(int i) : kind_(Kind::kNumber), num_(i) {}
  JsonValue(const char* s) : kind_(Kind::kString), str_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  JsonValue(JsonArray a) : kind_(Kind::kArray), arr_(std::move(a)) {}

  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue array() { return JsonValue(JsonArray{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  // Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const JsonArray& as_array() const;
  JsonArray& as_array();
  const std::vector<JsonMember>& members() const;

  // Object field access. set() replaces an existing key in place.
  JsonValue& set(const std::string& key, JsonValue value);
  const JsonValue* find(const std::string& key) const;  // null if absent
  const JsonValue& at(const std::string& key) const;    // throws if absent
  bool contains(const std::string& key) const { return find(key) != nullptr; }

  void push_back(JsonValue value);

  // Compact serialization (no insignificant whitespace) and a pretty
  // 2-space-indented form for files meant to be read by humans.
  std::string dump() const;
  std::string dump_pretty() const;

  // Strict parse of a complete document; trailing garbage is an error.
  static JsonValue parse(const std::string& text);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  JsonArray arr_;
  std::vector<JsonMember> obj_;
};

// A JSON-lines stream (run ledgers, heartbeat logs): one self-contained
// record per line.
struct JsonLines {
  std::vector<JsonValue> records;  // file order
  std::size_t skipped = 0;         // lenient mode: damaged lines skipped
};

// Returns "" for a valid record, else a one-line reason.
using JsonLineValidator = std::string (*)(const JsonValue&);

// Parse JSON-lines text. Blank (whitespace-only) lines are separators in
// both modes: a torn final write can leave one. Strict mode throws on the
// first line that fails to parse or validate ("<label> line N: <reason>",
// N counting blank lines); lenient mode skips and counts damaged lines and
// never aborts, so one torn tail line cannot wedge a reader.
JsonLines parse_json_lines(const std::string& text,
                           JsonLineValidator validate, bool strict,
                           const std::string& label);

// Read + parse a JSON-lines file. A missing file is an error in strict
// mode ("cannot open <file_label>: <path>") and empty in lenient mode.
JsonLines read_json_lines(const std::string& path,
                          JsonLineValidator validate, bool strict,
                          const std::string& label,
                          const std::string& file_label);

// Escape a string for embedding in a JSON document (without quotes).
std::string json_escape(const std::string& s);

// Canonical number rendering used by dump()/dump_pretty() and the
// config-hash canonicalizer (common/confighash.h): integers within 2^53
// print without a fraction, -0 normalizes to "0", everything else uses the
// *shortest* decimal form that parses back to the identical double (so a
// serialize -> parse -> serialize round trip is byte-stable). Throws
// std::runtime_error on NaN/Inf — JSON has no representation for them, and
// a loud error beats silently emitting a lossy placeholder.
std::string json_format_number(double d);

}  // namespace hpcos
