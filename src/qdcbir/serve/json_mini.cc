#include "qdcbir/serve/json_mini.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "qdcbir/obs/json.h"

namespace qdcbir {
namespace serve {

namespace {

constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    const Status status = ParseValue(&value, 0);
    if (!status.ok()) return status;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at byte " +
                                   std::to_string(pos_));
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
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (ConsumeLiteral("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::Ok();
    }
    if (ConsumeLiteral("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::Ok();
    }
    if (ConsumeLiteral("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      Status status = ParseString(&key);
      if (!status.ok()) return status;
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      out->fields.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue value;
      const Status status = ParseValue(&value, depth + 1);
      if (!status.ok()) return status;
      out->items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape");
          }
          // BMP only; surrogate pairs render as two replacement points,
          // which is fine for an admin API that never needs them.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t begin = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == begin) return Error("expected a value");
    const std::string token(text_.substr(begin, pos_ - begin));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("bad number");
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : fields) {
    if (name == key) return &value;
  }
  return nullptr;
}

bool JsonValue::AsUint(std::uint64_t max, std::uint64_t* out) const {
  // 2^64 is exact in a double, and every integral double in [0, 2^64)
  // converts to u64 without overflow.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!is_number() || !(number >= 0.0) || number >= kTwoTo64 ||
      std::floor(number) != number) {
    return false;
  }
  const std::uint64_t value = static_cast<std::uint64_t>(number);
  if (value > max) return false;
  *out = value;
  return true;
}

std::uint64_t JsonValue::U64Field(std::string_view key,
                                  std::uint64_t fallback) const {
  const JsonValue* value = Find(key);
  std::uint64_t out = fallback;
  if (value != nullptr && !value->AsUint(UINT64_MAX, &out)) return fallback;
  return out;
}

StatusOr<std::uint64_t> JsonValue::UintField(std::string_view key,
                                             std::uint64_t fallback,
                                             std::uint64_t max) const {
  const JsonValue* value = Find(key);
  if (value == nullptr) return fallback;
  std::uint64_t out = 0;
  if (!value->AsUint(max, &out)) {
    return Status::InvalidArgument("\"" + std::string(key) +
                                   "\" must be an integer in [0, " +
                                   std::to_string(max) + "]");
  }
  return out;
}

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  obs::AppendJsonString(&out, s);
  return out;
}

}  // namespace serve
}  // namespace qdcbir
