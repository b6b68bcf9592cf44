#ifndef WHYQ_SERVER_JSON_H_
#define WHYQ_SERVER_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json_escape.h"

namespace whyq::server {

/// Minimal JSON value for the wire protocol — parse one request line,
/// look fields up, done. Numbers are kept as doubles (the protocol's
/// integers — node ids, counts — fit a double exactly below 2^53, far
/// beyond any graph this serves). Object keys are unique; a duplicate
/// key keeps the last value, like every mainstream parser.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& as_array() const { return array_; }

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Compact re-serialization (used to echo request ids verbatim).
  std::string Dump() const;

  static JsonValue MakeNull() { return JsonValue(); }
  static JsonValue MakeBool(bool b);
  static JsonValue MakeNumber(double n);
  static JsonValue MakeString(std::string s);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(std::map<std::string, JsonValue> fields);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses `text` as one JSON document (whole input consumed; trailing
/// non-whitespace is an error). Nesting deeper than `max_depth` fails —
/// the recursive-descent parser must not let a "[[[[..." line grow the
/// stack. Returns false and sets `error` (with a byte offset) on failure.
bool ParseJson(const std::string& text, size_t max_depth, JsonValue* out,
               std::string* error);

/// JSON string escaping for hand-rolled emitters (common/json_escape.h).
using whyq::JsonEscape;

/// Number formatting: integers without an exponent, finite doubles with
/// enough digits to round-trip, non-finite values as 0 (JSON has no NaN).
std::string JsonNumber(double v);

}  // namespace whyq::server

#endif  // WHYQ_SERVER_JSON_H_
