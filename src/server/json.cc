#include "server/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace whyq::server {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(std::map<std::string, JsonValue> fields) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(fields);
  return v;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  double rounded = std::nearbyint(v);
  char buf[32];
  if (rounded == v && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", v);
  }
  return buf;
}

std::string JsonValue::Dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber:
      return JsonNumber(number_);
    case Type::kString: {
      std::string out = "\"";
      out += JsonEscape(string_);
      out += '"';
      return out;
    }
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ",";
        out += array_[i].Dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ",";
        first = false;
        out += '"';
        out += JsonEscape(k);
        out += "\":";
        out += v.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

/// Recursive-descent parser over a bounded input line. Depth is capped by
/// the caller (kMaxJsonDepth on the wire) so adversarial nesting cannot
/// grow the C++ stack.
class Parser {
 public:
  Parser(const std::string& text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  bool Parse(JsonValue* out, std::string* error) {
    SkipWs();
    // The top-level value sits at depth 1, so a document whose containers
    // nest deeper than max_depth_ levels fails (the header's contract).
    if (!ParseValue(out, 1)) {
      *error = error_ + " at byte " + std::to_string(pos_);
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      *error = "trailing characters at byte " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Fail(const std::string& msg) {
    error_ = msg;
    return false;
  }

  bool Literal(const char* word, JsonValue v, JsonValue* out) {
    size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return Fail("invalid literal");
    pos_ += n;
    *out = std::move(v);
    return true;
  }

  bool ParseValue(JsonValue* out, size_t depth) {
    if (depth > max_depth_) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case 'n':
        return Literal("null", JsonValue::MakeNull(), out);
      case 't':
        return Literal("true", JsonValue::MakeBool(true), out);
      case 'f':
        return Literal("false", JsonValue::MakeBool(false), out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = JsonValue::MakeString(std::move(s));
        return true;
      }
      case '[':
        return ParseArray(out, depth);
      case '{':
        return ParseObject(out, depth);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("invalid value");
    std::string num = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (end == num.c_str() || *end != '\0') return Fail("invalid number");
    *out = JsonValue::MakeNumber(v);
    return true;
  }

  static int HexDigit(char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 0xa;
    if (c >= 'A' && c <= 'F') return c - 'A' + 0xa;
    return -1;
  }

  void AppendUtf8(unsigned cp, std::string* s) {
    if (cp < 0x80) {
      *s += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *s += static_cast<char>(0xC0 | (cp >> 6));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *s += static_cast<char>(0xE0 | (cp >> 0xc));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *s += static_cast<char>(0xF0 | (cp >> 0x12));
      *s += static_cast<char>(0x80 | ((cp >> 0xc) & 0x3F));
      *s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool ParseHex4(unsigned* out) {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Fail("truncated \\u escape");
      int d = HexDigit(text_[pos_++]);
      if (d < 0) return Fail("bad \\u escape");
      v = (v << 4) | static_cast<unsigned>(d);
    }
    *out = v;
    return true;
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        *out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          *out += e;
          break;
        case 'b':
          *out += '\b';
          break;
        case 'f':
          *out += '\f';
          break;
        case 'n':
          *out += '\n';
          break;
        case 'r':
          *out += '\r';
          break;
        case 't':
          *out += '\t';
          break;
        case 'u': {
          unsigned cp = 0;
          if (!ParseHex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Fail("unpaired surrogate");
            }
            pos_ += 2;
            unsigned lo = 0;
            if (!ParseHex4(&lo)) return false;
            if (lo < 0xDC00 || lo > 0xDFFF) return Fail("unpaired surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 0xa) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Fail("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::MakeArray(std::move(items));
      return true;
    }
    for (;;) {
      JsonValue v;
      SkipWs();
      if (!ParseValue(&v, depth + 1)) return false;
      items.push_back(std::move(v));
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      char c = text_[pos_++];
      if (c == ']') break;
      if (c != ',') return Fail("expected ',' or ']' in array");
    }
    *out = JsonValue::MakeArray(std::move(items));
    return true;
  }

  bool ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    std::map<std::string, JsonValue> fields;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::MakeObject(std::move(fields));
      return true;
    }
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected string key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_++] != ':') {
        return Fail("expected ':' after key");
      }
      SkipWs();
      JsonValue v;
      if (!ParseValue(&v, depth + 1)) return false;
      fields[key] = std::move(v);
      SkipWs();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      char c = text_[pos_++];
      if (c == '}') break;
      if (c != ',') return Fail("expected ',' or '}' in object");
    }
    *out = JsonValue::MakeObject(std::move(fields));
    return true;
  }

  const std::string& text_;
  size_t max_depth_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(const std::string& text, size_t max_depth, JsonValue* out,
               std::string* error) {
  Parser p(text, max_depth);
  return p.Parse(out, error);
}

}  // namespace whyq::server
