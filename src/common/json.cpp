#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace hpcos {

JsonParseError::JsonParseError(const std::string& what, std::size_t off)
    : std::runtime_error(what + " at offset " + std::to_string(off)),
      offset(off) {}

namespace {

void type_error(const char* want) {
  throw std::runtime_error(std::string("JSON value is not a ") + want);
}

}  // namespace

std::string json_format_number(double d) {
  if (!std::isfinite(d)) {
    throw std::runtime_error(
        "JSON cannot represent a non-finite number (NaN/Inf); drop or "
        "replace the value before serializing");
  }
  if (d == 0.0) return "0";  // normalizes -0.0, which JSON cannot preserve
  // Range first: the cast of a double outside int64 is undefined.
  if (std::abs(d) < 9.007199254740992e15 &&  // 2^53: exact integer range
      d == static_cast<double>(static_cast<std::int64_t>(d))) {
    return std::to_string(static_cast<std::int64_t>(d));
  }
  // Shortest representation that survives the round trip: try increasing
  // precision and return the first rendering that parses back bit-equal.
  // (%.17g always round-trips but prints 0.1 as 0.10000000000000001; the
  // canonical form must be the minimal one so re-serialized documents and
  // config hashes are byte-stable.)
  char buf[40];
  for (int precision = 1; precision <= 17; ++precision) {
    const int n = std::snprintf(buf, sizeof(buf), "%.*g", precision, d);
    double back = 0.0;
    const auto [ptr, ec] = std::from_chars(buf, buf + n, back);
    if (ec == std::errc{} && ptr == buf + n && back == d) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) type_error("bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) type_error("number");
  return num_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) type_error("string");
  return str_;
}

const JsonArray& JsonValue::as_array() const {
  if (kind_ != Kind::kArray) type_error("array");
  return arr_;
}

JsonArray& JsonValue::as_array() {
  if (kind_ != Kind::kArray) type_error("array");
  return arr_;
}

const std::vector<JsonMember>& JsonValue::members() const {
  if (kind_ != Kind::kObject) type_error("object");
  return obj_;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (kind_ != Kind::kObject) type_error("object");
  for (auto& [k, v] : obj_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  obj_.emplace_back(key, std::move(value));
  return *this;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) type_error("object");
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("JSON object has no key \"" + key + "\"");
  }
  return *v;
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::kArray) type_error("array");
  arr_.push_back(std::move(value));
}

void JsonValue::write(std::string& out, int indent, int depth) const {
  std::string pad;
  std::string close_pad;
  if (indent > 0) {
    pad.assign(1, '\n');
    pad.append(static_cast<std::size_t>(indent * (depth + 1)), ' ');
    close_pad.assign(1, '\n');
    close_pad.append(static_cast<std::size_t>(indent * depth), ' ');
  }
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber:
      out += json_format_number(num_);
      return;
    case Kind::kString:
      out += '"';
      out += json_escape(str_);
      out += '"';
      return;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i > 0) out += ',';
        out += pad;
        arr_[i].write(out, indent, depth + 1);
      }
      out += close_pad;
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i > 0) out += ',';
        out += pad;
        out += '"';
        out += json_escape(obj_[i].first);
        out += "\":";
        if (indent > 0) out += ' ';
        obj_[i].second.write(out, indent, depth + 1);
      }
      out += close_pad;
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump() const {
  std::string out;
  write(out, 0, 0);
  return out;
}

std::string JsonValue::dump_pretty() const {
  std::string out;
  write(out, 2, 0);
  out += '\n';
  return out;
}

// ---- parser ----

namespace {

// Deepest array/object nesting the parser accepts. The committed
// documents nest fewer than ten levels; the cap exists so one hostile or
// corrupt line (a million '[') is an error, not a stack overflow.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) {
      throw JsonParseError("trailing characters after JSON document", pos_);
    }
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonParseError(what, pos_);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse. A throw leaves depth_ raised, which is fine:
        // the parse is over.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are rejected — the
          // emitters never produce them).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate pairs unsupported");
          }
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a JSON value");
    double d = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (ec != std::errc{} || ptr != text_.data() + pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue(d);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

JsonLines parse_json_lines(const std::string& text,
                           JsonLineValidator validate, bool strict,
                           const std::string& label) {
  JsonLines out;
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string err;
    try {
      JsonValue record = JsonValue::parse(line);
      err = validate(record);
      if (err.empty()) {
        out.records.push_back(std::move(record));
        continue;
      }
    } catch (const std::exception& e) {
      err = e.what();
    }
    if (strict) {
      throw std::runtime_error(label + " line " + std::to_string(line_no) +
                               ": " + err);
    }
    ++out.skipped;
  }
  return out;
}

JsonLines read_json_lines(const std::string& path,
                          JsonLineValidator validate, bool strict,
                          const std::string& label,
                          const std::string& file_label) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (strict) {
      throw std::runtime_error("cannot open " + file_label + ": " + path);
    }
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_json_lines(buf.str(), validate, strict, label);
}

}  // namespace hpcos
