// json.hpp — the one codec for LAIN's flat one-line JSON objects.
//
// Every JSON line LAIN writes or reads goes through here: the
// telemetry records (core/metrics.hpp), the scenario job wire format
// (core/scenario_json.hpp), the sweep-service frames
// (serve/proto.hpp) and the strings of ReportTable::to_json.  A line
// is one object of string, number and boolean values: no nesting, no
// null.
//
// The string rule, for keys and values alike: `"` and `\` are
// escaped with a backslash, and every byte below 0x20 is written as a
// space, so a record stays on one line whatever a string holds.  The
// parser accepts exactly the two escapes the writer produces.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lain::core {

// Flat one-line object builder.  Keys are emitted in call order, so
// every record type has a stable field layout; doubles print as %.17g,
// which round-trips an IEEE double exactly.
class JsonLine {
 public:
  JsonLine& str(std::string_view key, std::string_view v);
  JsonLine& num(std::string_view key, double v);
  JsonLine& num(std::string_view key, std::int64_t v);
  JsonLine& num(std::string_view key, std::uint64_t v);
  JsonLine& num(std::string_view key, int v) {
    return num(key, static_cast<std::int64_t>(v));
  }
  JsonLine& boolean(std::string_view key, bool v);

  // The finished object, "{...}".
  std::string done() const { return out_ + "}"; }

 private:
  JsonLine& raw(std::string_view key, const char* v);
  // Appends the separator and `"key":`.
  void begin_field(std::string_view key);
  std::string out_ = "{";
};

// `s` as a quoted JSON string, under the string rule above.
std::string json_string(std::string_view s);

// One field of a flat object.  Strings are unescaped; numbers keep
// their raw spelling (so re-encoding round-trips bytes); booleans are
// "true"/"false".
struct JsonField {
  enum class Kind { kString, kNumber, kBool };
  std::string key;
  Kind kind = Kind::kString;
  std::string text;
};

// Strict parser for one flat object.  Throws std::invalid_argument
// ("bad JSON at byte N: ...") on anything else, including a repeated
// key and trailing content.  Fields come back in wire order.
std::vector<JsonField> parse_flat_json_object(const std::string& line);

// The field named `key`, or nullptr.
const JsonField* find_field(const std::vector<JsonField>& fields,
                            std::string_view key);

// The text of `line`'s field `key` (see JsonField), or nullopt when
// the object has no such key.  Throws like parse_flat_json_object on
// a malformed line.
std::optional<std::string> json_field(const std::string& line,
                                      std::string_view key);

}  // namespace lain::core
