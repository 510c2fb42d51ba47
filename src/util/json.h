#pragma once
// Dependency-free JSON for the service layer: a streaming writer with
// strict RFC 8259 escaping (the daemon's response bodies) and a small
// recursive-descent parser (the daemon's /ingest request bodies and the
// test suite's round-trip checks). Numbers are written with
// std::to_chars, the shortest representation that parses back to the
// same double, so scores survive an HTTP round trip bit-identically;
// NaN/Inf — which JSON cannot represent — are written as null.

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mrbc::util {

/// Incremental JSON document builder. Comma/colon placement is handled by
/// the writer; the caller is responsible for well-formed nesting (an
/// assertion-free, trusting API — the unit tests pin the grammar).
///
///   JsonWriter w;
///   w.begin_object().key("epoch").value(std::uint64_t{3})
///    .key("scores").begin_array().value(1.5).value(2.0).end_array()
///    .end_object();
///   w.str()  // {"epoch":3,"scores":[1.5,2]}
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(double v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint32_t v) { return value(static_cast<std::uint64_t>(v)); }
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();
  /// Splices a pre-serialized JSON fragment in value position (used to
  /// embed obs::Metrics::json() output without reparsing it).
  JsonWriter& raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void comma();
  std::string out_;
  bool need_comma_ = false;
};

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parsed JSON value. Numbers are kept as double plus an is-integral flag
/// (exact for |v| < 2^53, which covers every id/count the service emits).
class JsonValue {
 public:
  enum class Kind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; throw JsonError on kind mismatch.
  bool as_bool() const;
  double as_double() const;
  /// Throws when the number is negative, fractional, or >= 2^53.
  std::uint64_t as_u64() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  /// Object member lookup; throws JsonError when absent or not an object.
  const JsonValue& at(const std::string& k) const;
  /// nullptr when absent (still throws when not an object).
  const JsonValue* find(const std::string& k) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double d);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> a);
  static JsonValue make_object(std::map<std::string, JsonValue> o);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::map<std::string, JsonValue> obj_;
};

/// Parses exactly one JSON document (trailing non-whitespace is an error).
/// Strict: rejects trailing commas, unquoted keys, single quotes, control
/// characters inside strings, bad \u escapes (lone surrogates included),
/// and depth > 64. Throws JsonError with an offset-bearing message.
JsonValue json_parse(std::string_view text);

}  // namespace mrbc::util
