#include "json_scan.h"

#include <charconv>
#include <cstdint>

namespace loadbench {
namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> ParseDocument() {
    JsonValue v;
    if (!ParseValue(&v, 0)) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;
    return v;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const size_t start = pos_;
    bool ok = false;
    switch (text_[pos_]) {
      case '{':
        out->kind = JsonValue::Kind::kObject;
        ok = ParseObject(out, depth);
        break;
      case '[':
        out->kind = JsonValue::Kind::kArray;
        ok = ParseArray(out, depth);
        break;
      case '"':
        out->kind = JsonValue::Kind::kString;
        ok = ParseString(&out->str);
        break;
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        ok = Literal("true");
        break;
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        ok = Literal("false");
        break;
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        ok = Literal("null");
        break;
      default:
        out->kind = JsonValue::Kind::kNumber;
        ok = ParseNumber(&out->number);
    }
    if (ok) out->raw = text_.substr(start, pos_ - start);
    return ok;
  }

  bool ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !ParseString(&key)) {
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value, depth + 1)) return false;
      out->members.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  bool ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue item;
      if (!ParseValue(&item, depth + 1)) return false;
      out->items.push_back(std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (text_[pos_] != ',') return false;
      ++pos_;
    }
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          uint32_t cp = 0;
          const auto [end, ec] = std::from_chars(
              text_.data() + pos_, text_.data() + pos_ + 4, cp, 16);
          if (ec != std::errc() || end != text_.data() + pos_ + 4) {
            return false;
          }
          pos_ += 4;
          AppendUtf8(cp, out);
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool ParseNumber(double* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const size_t digits = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == digits) return false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      const size_t frac = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == frac) return false;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      const size_t exp = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      if (pos_ == exp) return false;
    }
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, *out);
    return ec == std::errc() && end == text_.data() + pos_;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

std::optional<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace loadbench
