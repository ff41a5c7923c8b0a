#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/check.h"

namespace lightrw::obs {

bool Json::bool_value() const {
  LIGHTRW_CHECK(kind_ == Kind::kBool);
  return bool_;
}

int64_t Json::int_value() const {
  switch (kind_) {
    case Kind::kInt:
      return int_;
    case Kind::kUint:
      return static_cast<int64_t>(uint_);
    case Kind::kDouble:
      return static_cast<int64_t>(double_);
    default:
      LIGHTRW_CHECK(false && "Json::int_value on non-number");
      return 0;
  }
}

uint64_t Json::uint_value() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<uint64_t>(int_);
    case Kind::kUint:
      return uint_;
    case Kind::kDouble:
      return static_cast<uint64_t>(double_);
    default:
      LIGHTRW_CHECK(false && "Json::uint_value on non-number");
      return 0;
  }
}

double Json::double_value() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      LIGHTRW_CHECK(false && "Json::double_value on non-number");
      return 0.0;
  }
}

const std::string& Json::string_value() const {
  LIGHTRW_CHECK(kind_ == Kind::kString);
  return string_;
}

const Json::Array& Json::array() const {
  LIGHTRW_CHECK(kind_ == Kind::kArray);
  return array_;
}

const Json::Object& Json::object() const {
  LIGHTRW_CHECK(kind_ == Kind::kObject);
  return object_;
}

Json& Json::Set(std::string key, Json value) {
  LIGHTRW_CHECK(kind_ == Kind::kObject);
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) {
    return nullptr;
  }
  for (const auto& [k, v] : object_) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

Json& Json::Append(Json value) {
  LIGHTRW_CHECK(kind_ == Kind::kArray);
  array_.push_back(std::move(value));
  return *this;
}

size_t Json::size() const {
  if (kind_ == Kind::kArray) {
    return array_.size();
  }
  if (kind_ == Kind::kObject) {
    return object_.size();
  }
  return 0;
}

void AppendJsonEscaped(std::string* out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendJsonDouble(std::string* out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; emit null like most tolerant encoders.
    *out += "null";
    return;
  }
  char buf[32];
  const auto result =
      std::to_chars(buf, buf + sizeof(buf), value);  // shortest round-trip
  out->append(buf, result.ptr);
}

void JsonWriter::NewLine() {
  if (indent_ >= 0) {
    out_ += '\n';
    out_.append(static_cast<size_t>(indent_) * stack_.size(), ' ');
  }
}

void JsonWriter::BeforeElement() {
  Frame& top = stack_.back();
  if (!top.empty) {
    out_ += ',';
  }
  top.empty = false;
  NewLine();
}

void JsonWriter::BeforeValue() {
  if (stack_.empty()) {
    LIGHTRW_CHECK(!started_ && "JsonWriter: second top-level value");
    started_ = true;
  } else if (stack_.back().object) {
    LIGHTRW_CHECK(key_pending_ && "JsonWriter: object member without a key");
    key_pending_ = false;
  } else {
    BeforeElement();
  }
}

void JsonWriter::Open(bool object) {
  BeforeValue();
  out_ += object ? '{' : '[';
  stack_.push_back(Frame{object, true});
}

void JsonWriter::BeginObject() { Open(/*object=*/true); }

void JsonWriter::BeginArray() { Open(/*object=*/false); }

void JsonWriter::End() {
  LIGHTRW_CHECK(!stack_.empty() && "JsonWriter: End with no open container");
  LIGHTRW_CHECK(!key_pending_ && "JsonWriter: key without a value");
  const Frame top = stack_.back();
  stack_.pop_back();
  if (!top.empty) {
    NewLine();
  }
  out_ += top.object ? '}' : ']';
}

void JsonWriter::Key(std::string_view key) {
  LIGHTRW_CHECK(!stack_.empty() && stack_.back().object &&
                "JsonWriter: key outside an object");
  LIGHTRW_CHECK(!key_pending_ && "JsonWriter: key without a value");
  BeforeElement();
  out_ += '"';
  AppendJsonEscaped(&out_, key);
  out_ += indent_ >= 0 ? "\": " : "\":";
  key_pending_ = true;
}

void JsonWriter::Value(std::nullptr_t) {
  BeforeValue();
  out_ += "null";
}

void JsonWriter::Value(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Value(int64_t value) {
  BeforeValue();
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out_.append(buf, result.ptr);
}

void JsonWriter::Value(uint64_t value) {
  BeforeValue();
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out_.append(buf, result.ptr);
}

void JsonWriter::Value(double value) {
  BeforeValue();
  AppendJsonDouble(&out_, value);
}

void JsonWriter::Value(std::string_view value) {
  BeforeValue();
  out_ += '"';
  AppendJsonEscaped(&out_, value);
  out_ += '"';
}

void JsonWriter::Value(const Json& value) {
  switch (value.kind()) {
    case Json::Kind::kNull:
      Value(nullptr);
      return;
    case Json::Kind::kBool:
      Value(value.bool_value());
      return;
    case Json::Kind::kInt:
      Value(value.int_value());
      return;
    case Json::Kind::kUint:
      Value(value.uint_value());
      return;
    case Json::Kind::kDouble:
      Value(value.double_value());
      return;
    case Json::Kind::kString:
      Value(value.string_value());
      return;
    case Json::Kind::kArray:
      BeginArray();
      for (const Json& element : value.array()) {
        Value(element);
      }
      End();
      return;
    case Json::Kind::kObject:
      BeginObject();
      for (const auto& [key, member] : value.object()) {
        Key(key);
        Value(member);
      }
      End();
      return;
  }
}

std::string JsonWriter::Take() {
  LIGHTRW_CHECK(started_ && stack_.empty() &&
                "JsonWriter: Take before the document is complete");
  started_ = false;
  return std::exchange(out_, std::string());
}

std::string Json::Dump(int indent) const {
  JsonWriter writer(indent);
  writer.Value(*this);
  return writer.Take();
}

// ---------------------------------------------------------------------------
// Parser: recursive descent with a depth limit.

namespace {

constexpr int kMaxParseDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<Json> ParseDocument() {
    auto value = ParseValue(0);
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return InvalidArgumentError("json parse error at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  StatusOr<Json> ParseValue(int depth) {
    if (depth > kMaxParseDepth) {
      return Error("nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject(depth);
    }
    if (c == '[') {
      return ParseArray(depth);
    }
    if (c == '"') {
      auto str = ParseString();
      if (!str.ok()) {
        return str.status();
      }
      return Json(std::move(str).value());
    }
    if (ConsumeLiteral("null")) {
      return Json();
    }
    if (ConsumeLiteral("true")) {
      return Json(true);
    }
    if (ConsumeLiteral("false")) {
      return Json(false);
    }
    return ParseNumber();
  }

  StatusOr<Json> ParseObject(int depth) {
    LIGHTRW_CHECK(Consume('{'));
    Json out = Json::MakeObject();
    SkipWhitespace();
    if (Consume('}')) {
      return out;
    }
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' in object");
      }
      auto value = ParseValue(depth + 1);
      if (!value.ok()) {
        return value;
      }
      out.Set(std::move(key).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return out;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  StatusOr<Json> ParseArray(int depth) {
    LIGHTRW_CHECK(Consume('['));
    Json out = Json::MakeArray();
    SkipWhitespace();
    if (Consume(']')) {
      return out;
    }
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) {
        return value;
      }
      out.Append(std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return out;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  StatusOr<std::string> ParseString() {
    if (!Consume('"')) {
      return Error("expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) {
          --pos_;
          return Error("unescaped control character in string");
        }
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          const auto result = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
          if (result.ptr != text_.data() + pos_ + 4) {
            return Error("bad \\u escape");
          }
          pos_ += 4;
          // Only BMP code points below 0x80 are emitted by our encoder;
          // decode the rest as UTF-8 for completeness.
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
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  // Number syntax per RFC 8259: an optional minus, an integer part with
  // no leading zero, then optionally a fraction and an exponent, each
  // with at least one digit.
  StatusOr<Json> ParseNumber() {
    const size_t start = pos_;
    const auto digits = [this] {
      const size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ - from;
    };
    const bool negative = Consume('-');
    const size_t int_start = pos_;
    const size_t int_digits = digits();
    if (int_digits == 0) {
      return Error(negative ? "expected digit after '-'" : "expected value");
    }
    if (int_digits > 1 && text_[int_start] == '0') {
      return Error("leading zero in number");
    }
    bool is_double = false;
    if (Consume('.')) {
      is_double = true;
      if (digits() == 0) {
        return Error("expected digit after '.'");
      }
    }
    if (Consume('e') || Consume('E')) {
      is_double = true;
      if (!Consume('+')) {
        Consume('-');
      }
      if (digits() == 0) {
        return Error("expected digit in exponent");
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_double) {
      if (!negative) {
        uint64_t value = 0;
        const auto result = std::from_chars(
            token.data(), token.data() + token.size(), value);
        if (result.ec == std::errc() &&
            result.ptr == token.data() + token.size()) {
          return Json(value);
        }
      } else {
        int64_t value = 0;
        const auto result = std::from_chars(
            token.data(), token.data() + token.size(), value);
        if (result.ec == std::errc() &&
            result.ptr == token.data() + token.size()) {
          return Json(value);
        }
      }
    }
    double value = 0.0;
    const auto result =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (result.ec != std::errc() ||
        result.ptr != token.data() + token.size()) {
      return Error("malformed number");
    }
    return Json(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<Json> Json::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace lightrw::obs
