// Minimal JSON support for the bench drivers: a streaming writer and a tiny
// recursive-descent parser.
//
// The writer emits deterministic output (keys in the order written, fixed
// number formatting) so bench JSON diffs cleanly between runs. The parser
// covers the subset the benches produce — objects, arrays, strings, numbers,
// booleans, null — and exists so harnesses can validate their own output
// schema without an external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "util/shard.h"

namespace inband {

// --- Writer -----------------------------------------------------------------

// Streaming writer with explicit begin/end nesting. Keys and values are
// emitted in call order; the writer inserts commas and indentation. Misuse
// (value without a pending key inside an object, unbalanced end) asserts.
INBAND_SHARD_LOCAL(owner)
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_{os} {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  // Key for the next value (objects only).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view{v}); }
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(bool v);
  JsonWriter& value_null();

  // Shorthand: key + value.
  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

 private:
  void before_value();
  void newline_indent();
  static void write_escaped(std::ostream& os, std::string_view s);

  struct Level {
    bool array = false;
    bool first = true;
  };
  std::ostream& os_;
  std::vector<Level> stack_;
  bool key_pending_ = false;
};

// --- Parser -----------------------------------------------------------------

// Parsed JSON value. Object member order is not preserved (std::map), which
// is fine for lookups and keeps iteration deterministic.
INBAND_SHARD_LOCAL(owner)
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_v = false;
  double num_v = 0.0;
  std::string str_v;
  std::vector<JsonValue> arr_v;
  std::map<std::string, JsonValue> obj_v;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_bool() const { return kind == Kind::kBool; }

  // Member lookup; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& k) const;
};

// Parses `text`; returns nullptr and fills `error` on malformed input.
std::unique_ptr<JsonValue> json_parse(std::string_view text,
                                      std::string* error);

// Convenience: reads and parses a file. Returns nullptr on IO/parse error.
std::unique_ptr<JsonValue> json_parse_file(const std::string& path,
                                           std::string* error);

}  // namespace inband
