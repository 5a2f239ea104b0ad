#include "util/json.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/assert.h"

namespace inband {

// --- Writer -----------------------------------------------------------------

void JsonWriter::write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          // hotlint:allow(hot-io): stack formatting; hot only via key() name collision
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void JsonWriter::newline_indent() {
  os_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) os_ << "  ";
}

void JsonWriter::before_value() {
  if (stack_.empty()) return;  // top-level value
  Level& top = stack_.back();
  if (top.array) {
    INBAND_ASSERT(!key_pending_, "key inside an array");
    if (!top.first) os_ << ',';
    newline_indent();
  } else {
    INBAND_ASSERT(key_pending_, "object value without a key");
  }
  top.first = false;
  key_pending_ = false;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  INBAND_ASSERT(!stack_.empty() && !stack_.back().array,
                "key() outside an object");
  INBAND_ASSERT(!key_pending_, "two keys in a row");
  if (!stack_.back().first) os_ << ',';
  newline_indent();
  write_escaped(os_, k);
  os_ << ": ";
  stack_.back().first = false;
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  os_ << '{';
  stack_.push_back({false, true});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  INBAND_ASSERT(!stack_.empty() && !stack_.back().array, "unbalanced end");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << '}';
  if (stack_.empty()) os_ << '\n';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  os_ << '[';
  stack_.push_back({true, true});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  INBAND_ASSERT(!stack_.empty() && stack_.back().array, "unbalanced end");
  const bool empty = stack_.back().first;
  stack_.pop_back();
  if (!empty) newline_indent();
  os_ << ']';
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  before_value();
  write_escaped(os_, v);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value();
  char buf[64];
  // %.17g round-trips; trim to %g for readability where exactness is not
  // needed — bench metrics are measurements, not bit-exact state.
  // hotlint:allow(hot-io): stack formatting; hot only via value() name collision
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os_ << buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value();
  os_ << v;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  before_value();
  os_ << (v ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value_null() {
  before_value();
  os_ << "null";
  return *this;
}

// --- Parser -----------------------------------------------------------------

const JsonValue* JsonValue::find(const std::string& k) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = obj_v.find(k);
  return it == obj_v.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_{text}, error_{error} {}

  std::unique_ptr<JsonValue> run() {
    auto v = std::make_unique<JsonValue>();
    if (!parse_value(*v)) return nullptr;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after top-level value");
      return nullptr;
    }
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_ != nullptr && error_->empty()) {
      *error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      fail("expected string");
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'u': {
            // Benches only emit control-char escapes; decode as '?' rather
            // than implementing full UTF-16 surrogates.
            pos_ += std::min<std::size_t>(4, text_.size() - pos_);
            c = '?';
            break;
          }
          default:
            c = esc;
        }
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    if (c == '{') return parse_object(out);
    if (c == '[') return parse_array(out);
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parse_string(out.str_v);
    }
    if (literal("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.bool_v = true;
      return true;
    }
    if (literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.bool_v = false;
      return true;
    }
    if (literal("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    // Number.
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) {
      fail("unexpected character");
      return false;
    }
    try {
      out.num_v = std::stod(std::string{text_.substr(start, pos_ - start)});
    } catch (const std::exception&) {
      fail("bad number");
      return false;
    }
    out.kind = JsonValue::Kind::kNumber;
    return true;
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string k;
      if (!parse_string(k)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail("expected ':'");
        return false;
      }
      ++pos_;
      JsonValue v;
      if (!parse_value(v)) return false;
      out.obj_v.emplace(std::move(k), std::move(v));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      fail("expected ',' or '}'");
      return false;
    }
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(v)) return false;
      out.arr_v.push_back(std::move(v));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      fail("expected ',' or ']'");
      return false;
    }
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<JsonValue> json_parse(std::string_view text,
                                      std::string* error) {
  return Parser{text, error}.run();
}

std::unique_ptr<JsonValue> json_parse_file(const std::string& path,
                                           std::string* error) {
  std::ifstream in{path};
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return nullptr;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return json_parse(ss.str(), error);
}

}  // namespace inband
