#include "core/json.hpp"

#include <cctype>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace lain::core {

namespace {

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& s) : s_(s) {}

  std::vector<JsonField> parse_object() {
    std::vector<JsonField> fields;
    std::set<std::string> keys;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++i_;
      finish();
      return fields;
    }
    while (true) {
      skip_ws();
      JsonField f;
      f.key = parse_string();
      // A repeated key is ambiguous: readers would disagree on which
      // value counts.
      if (!keys.insert(f.key).second) {
        fail("repeated key \"" + f.key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      parse_value(&f);
      fields.push_back(std::move(f));
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++i_;
        continue;
      }
      if (c == '}') {
        ++i_;
        break;
      }
      fail("expected ',' or '}'");
    }
    finish();
    return fields;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("bad JSON at byte " + std::to_string(i_) +
                                ": " + why);
  }
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i_;
  }
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  void finish() {
    skip_ws();
    if (i_ != s_.size()) fail("trailing content after object");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (i_ >= s_.size()) fail("unterminated string");
      char c = s_[i_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i_ >= s_.size()) fail("dangling escape");
        c = s_[i_++];
        if (c != '"' && c != '\\') fail("unsupported escape");
      }
      out += c;
    }
  }

  void parse_value(JsonField* f) {
    const char c = peek();
    if (c == '"') {
      f->kind = JsonField::Kind::kString;
      f->text = parse_string();
      return;
    }
    if (s_.compare(i_, 4, "true") == 0) {
      i_ += 4;
      f->kind = JsonField::Kind::kBool;
      f->text = "true";
      return;
    }
    if (s_.compare(i_, 5, "false") == 0) {
      i_ += 5;
      f->kind = JsonField::Kind::kBool;
      f->text = "false";
      return;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const std::size_t start = i_;
      while (i_ < s_.size() &&
             (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
              s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
              s_[i_] == 'e' || s_[i_] == 'E')) {
        ++i_;
      }
      f->kind = JsonField::Kind::kNumber;
      f->text = s_.substr(start, i_ - start);
      return;
    }
    fail("expected string, number or boolean value");
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

JsonLine& JsonLine::str(std::string_view key, std::string_view v) {
  begin_field(key);
  append_string(out_, v);
  return *this;
}

JsonLine& JsonLine::num(std::string_view key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return raw(key, buf);
}

JsonLine& JsonLine::num(std::string_view key, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return raw(key, buf);
}

JsonLine& JsonLine::num(std::string_view key, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return raw(key, buf);
}

JsonLine& JsonLine::boolean(std::string_view key, bool v) {
  return raw(key, v ? "true" : "false");
}

JsonLine& JsonLine::raw(std::string_view key, const char* v) {
  begin_field(key);
  out_ += v;
  return *this;
}

void JsonLine::begin_field(std::string_view key) {
  if (out_.size() > 1) out_ += ',';
  append_string(out_, key);
  out_ += ':';
}

std::string json_string(std::string_view s) {
  std::string out;
  append_string(out, s);
  return out;
}

std::vector<JsonField> parse_flat_json_object(const std::string& line) {
  return FlatJsonParser(line).parse_object();
}

const JsonField* find_field(const std::vector<JsonField>& fields,
                            std::string_view key) {
  for (const JsonField& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

std::optional<std::string> json_field(const std::string& line,
                                      std::string_view key) {
  const std::vector<JsonField> fields = parse_flat_json_object(line);
  const JsonField* f = find_field(fields, key);
  if (f == nullptr) return std::nullopt;
  return f->text;
}

}  // namespace lain::core
