#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace mrbc::util {

// ---- Escaping / writer ------------------------------------------------------

namespace {

/// Appends `s` to `out` as a quoted JSON string literal: ", \ and control
/// characters below 0x20 are escaped (\n, \r, \t, \b, \f get their short
/// forms, the rest \u00XX); everything else — including multi-byte UTF-8 —
/// passes through untouched.
void append_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // start of the pending run of characters copied as is
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

template <typename Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

void JsonWriter::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  comma();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  comma();
  append_string(out_, k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  comma();
  append_string(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, r.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  append_int(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  comma();
  append_int(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  comma();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::raw(std::string_view json) {
  comma();
  out_ += json;
  return *this;
}

// ---- Value ------------------------------------------------------------------

namespace {
[[noreturn]] void kind_error(const char* want) {
  throw JsonError(std::string("json: value is not ") + want);
}
}  // namespace

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return num_;
}

std::uint64_t JsonValue::as_u64() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  if (num_ < 0 || num_ >= 9007199254740992.0 || num_ != std::floor(num_)) {
    throw JsonError("json: number is not an exact unsigned integer");
  }
  return static_cast<std::uint64_t>(num_);
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return str_;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return arr_;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind_ != Kind::kObject) kind_error("an object");
  return obj_;
}

const JsonValue& JsonValue::at(const std::string& k) const {
  const JsonValue* v = find(k);
  if (v == nullptr) throw JsonError("json: missing member \"" + k + "\"");
  return *v;
}

const JsonValue* JsonValue::find(const std::string& k) const {
  if (kind_ != Kind::kObject) kind_error("an object");
  auto it = obj_.find(k);
  return it == obj_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}
JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}
JsonValue JsonValue::make_array(std::vector<JsonValue> a) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::move(a);
  return v;
}
JsonValue JsonValue::make_object(std::map<std::string, JsonValue> o) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::move(o);
  return v;
}

// ---- Parser -----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("json parse error at offset " + std::to_string(pos_) + ": " + what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  char take() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  void expect(char c) {
    if (eof() || peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    if (eof()) fail("unexpected end of input");
    JsonValue v;
    switch (peek()) {
      case '{': v = parse_object(); break;
      case '[': v = parse_array(); break;
      case '"': v = JsonValue::make_string(parse_string()); break;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v = JsonValue::make_bool(true);
        break;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v = JsonValue::make_bool(false);
        break;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v = JsonValue::make_null();
        break;
      default: v = parse_number(); break;
    }
    --depth_;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    std::map<std::string, JsonValue> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return JsonValue::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string k = parse_string();
      skip_ws();
      expect(':');
      members[std::move(k)] = parse_value();
      skip_ws();
      const char c = take();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return JsonValue::make_object(std::move(members));
  }

  JsonValue parse_array() {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return JsonValue::make_array(std::move(items));
    }
    while (true) {
      items.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return JsonValue::make_array(std::move(items));
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape");
    }
    return v;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (take() != '\\' || take() != 'u') fail("lone high surrogate");
            const unsigned lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !(peek() >= '0' && peek() <= '9')) fail("bad number");
    // Grammar check (no leading zeros, digits around '.'/exponent), then
    // one from_chars over the validated span.
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !(peek() >= '0' && peek() <= '9')) fail("bad fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !(peek() >= '0' && peek() <= '9')) fail("bad exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    double d = 0;
    const auto r = std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (r.ec != std::errc{} || r.ptr != text_.data() + pos_) fail("bad number");
    return JsonValue::make_number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue json_parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace mrbc::util
