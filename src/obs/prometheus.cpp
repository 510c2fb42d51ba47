#include "obs/prometheus.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace mrbc::obs {

namespace {

void append_double(std::string& out, double v) {
  // NaN/Inf cannot appear in a sample we emit (the strict parser — and
  // real scrapers' sanity — reject NaN); clamp to 0 defensively.
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_label_value(std::string& out, std::string_view v) {
  out.push_back('"');
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void append_labels(std::string& out, const PromLabels& labels, std::string_view le) {
  if (labels.empty() && le.empty()) return;
  out.push_back('{');
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += k;
    out.push_back('=');
    append_label_value(out, v);
  }
  if (!le.empty()) {
    if (!first) out.push_back(',');
    out += "le=";
    append_label_value(out, le);
  }
  out.push_back('}');
}

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

}  // namespace

// ---- Writer -----------------------------------------------------------------

PromWriter& PromWriter::type(std::string_view name, std::string_view kind,
                             std::string_view help) {
  out_ += "# HELP ";
  out_ += name;
  out_.push_back(' ');
  out_ += help;
  out_ += "\n# TYPE ";
  out_ += name;
  out_.push_back(' ');
  out_ += kind;
  out_.push_back('\n');
  return *this;
}

void PromWriter::series(std::string_view name, const PromLabels& labels, std::string_view le,
                        double value) {
  out_ += name;
  append_labels(out_, labels, le);
  out_.push_back(' ');
  append_double(out_, value);
  out_.push_back('\n');
}

PromWriter& PromWriter::sample(std::string_view name, const PromLabels& labels, double value) {
  series(name, labels, {}, value);
  return *this;
}

PromWriter& PromWriter::sample(std::string_view name, const PromLabels& labels,
                               std::uint64_t value) {
  series(name, labels, {}, static_cast<double>(value));
  return *this;
}

PromWriter& PromWriter::histogram(std::string_view name, const PromLabels& labels,
                                  const Histogram& h) {
  const HistWindow m = h.merged();
  if (m.count == 0) return *this;
  const std::string bucket_name = std::string(name) + "_bucket";
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (m.buckets[i] == 0) continue;
    cum += m.buckets[i];
    series(bucket_name, labels, std::to_string(Histogram::bucket_upper(i)),
           static_cast<double>(cum));
  }
  // +Inf and _count repeat the bucket total, not m.count: a scrape racing
  // live recorders can see a sample's bucket before its count, and the
  // format requires +Inf == _count >= every finite bucket.
  series(bucket_name, labels, "+Inf", static_cast<double>(cum));
  series(std::string(name) + "_sum", labels, {}, static_cast<double>(m.sum));
  series(std::string(name) + "_count", labels, {}, static_cast<double>(cum));
  return *this;
}

// ---- Strict parser ----------------------------------------------------------

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw PromParseError("metrics line " + std::to_string(line_no) + ": " + what);
}

/// Parses a {k="v",...} label block starting at text[pos] == '{'.
std::map<std::string, std::string> parse_labels(std::string_view line, std::size_t& pos,
                                                std::size_t line_no) {
  std::map<std::string, std::string> labels;
  ++pos;  // '{'
  while (pos < line.size() && line[pos] != '}') {
    const std::size_t eq = line.find('=', pos);
    if (eq == std::string_view::npos) fail(line_no, "label without '='");
    const std::string name(line.substr(pos, eq - pos));
    if (!valid_label_name(name)) fail(line_no, "bad label name '" + name + "'");
    pos = eq + 1;
    if (pos >= line.size() || line[pos] != '"') fail(line_no, "label value not quoted");
    ++pos;
    std::string value;
    while (pos < line.size() && line[pos] != '"') {
      char c = line[pos];
      if (c == '\\') {
        if (pos + 1 >= line.size()) fail(line_no, "dangling escape in label value");
        const char esc = line[pos + 1];
        if (esc == 'n') c = '\n';
        else if (esc == '"' || esc == '\\') c = esc;
        else fail(line_no, "bad escape in label value");
        ++pos;
      }
      value.push_back(c);
      ++pos;
    }
    if (pos >= line.size()) fail(line_no, "unterminated label value");
    ++pos;  // closing quote
    if (labels.count(name) != 0) fail(line_no, "duplicate label '" + name + "'");
    labels.emplace(name, std::move(value));
    if (pos < line.size() && line[pos] == ',') ++pos;
    else if (pos < line.size() && line[pos] != '}') fail(line_no, "expected ',' or '}'");
  }
  if (pos >= line.size()) fail(line_no, "unterminated label block");
  ++pos;  // '}'
  return labels;
}

}  // namespace

std::vector<PromSample> prom_parse(std::string_view text) {
  std::vector<PromSample> out;
  std::map<std::string, std::string> declared_type;  // family -> kind
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? std::string_view::npos : nl - pos);
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Only well-formed "# HELP name ..." / "# TYPE name kind" comments.
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (!valid_metric_name(rest.substr(0, sp))) fail(line_no, "bad HELP metric name");
        continue;
      }
      if (line.rfind("# TYPE ", 0) == 0) {
        const std::string_view rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string_view::npos) fail(line_no, "TYPE without kind");
        const std::string name(rest.substr(0, sp));
        const std::string kind(rest.substr(sp + 1));
        if (!valid_metric_name(name)) fail(line_no, "bad TYPE metric name");
        if (kind != "counter" && kind != "gauge" && kind != "histogram" && kind != "summary" &&
            kind != "untyped") {
          fail(line_no, "unknown TYPE kind '" + kind + "'");
        }
        if (declared_type.count(name) != 0) fail(line_no, "duplicate TYPE for '" + name + "'");
        declared_type.emplace(name, kind);
        continue;
      }
      fail(line_no, "malformed comment (only # HELP / # TYPE allowed)");
    }
    PromSample s;
    std::size_t p = 0;
    while (p < line.size() && line[p] != '{' && line[p] != ' ') ++p;
    s.name = std::string(line.substr(0, p));
    if (!valid_metric_name(s.name)) fail(line_no, "bad metric name '" + s.name + "'");
    if (p < line.size() && line[p] == '{') s.labels = parse_labels(line, p, line_no);
    if (p >= line.size() || line[p] != ' ') fail(line_no, "expected ' ' before value");
    ++p;
    const std::string value_text(line.substr(p));
    if (value_text.empty() || value_text.find(' ') != std::string::npos) {
      // No timestamps: the daemon never emits them, so a trailing field
      // here is a malformed value.
      fail(line_no, "expected exactly one value field");
    }
    char* end = nullptr;
    s.value = std::strtod(value_text.c_str(), &end);
    if (end != value_text.c_str() + value_text.size()) {
      fail(line_no, "unparseable value '" + value_text + "'");
    }
    if (std::isnan(s.value)) fail(line_no, "NaN sample value");
    // +Inf is only legal as an le *label*, never as a sample value.
    if (std::isinf(s.value)) fail(line_no, "infinite sample value");
    out.push_back(std::move(s));
  }
  return out;
}

const PromSample* prom_find(const std::vector<PromSample>& samples, std::string_view name,
                            const PromLabels& labels) {
  for (const PromSample& s : samples) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& [k, v] : labels) {
      const auto it = s.labels.find(k);
      if (it == s.labels.end() || it->second != v) {
        match = false;
        break;
      }
    }
    if (match) return &s;
  }
  return nullptr;
}

}  // namespace mrbc::obs
