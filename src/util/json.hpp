// The one JSON reader and string escaper. JSON appears only at the
// program's edges — the `--json` report `specure triage` reads back, the
// `specure serve` wire protocol and event log, the Chrome trace — and
// every one of them reads and escapes through this module.
//
// The parser takes input from outside the process, so every failure is a
// JsonError with "line N:" context, nesting is bounded by kMaxJsonDepth
// (a document of 100,000 '[' is an error, not a stack overflow), and
// trailing data after the value is rejected. Callers map JsonError onto
// their own error type (serve::ProtocolError, core::SpecError).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace specure::util {

/// Deepest container nesting parse_json accepts. The deepest document
/// the program writes has depth 4; this is a check on outside input.
constexpr int kMaxJsonDepth = 64;

/// Thrown by parse_json on malformed input; what() starts with "line N: ".
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A parsed JSON value. Objects remember the source line of every key so
/// field errors can point at the offending line.
struct Json {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kObject,
    kArray
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  /// kString: the decoded string. kNumber and kBool: the source token,
  /// so an integer above 2^53 (a u64 seed) survives exactly.
  std::string text;
  // kObject, in source order; parallel arrays because a nested struct
  // holding a Json by value would be an incomplete type, while
  // std::vector of an incomplete element type is fine in C++17.
  std::vector<std::string> keys;
  std::vector<int> key_lines;   ///< source line of each key
  std::vector<Json> values;     ///< parallel to keys
  std::vector<Json> items;      ///< kArray

  const Json* find(std::string_view key) const {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == key) return &values[i];
    }
    return nullptr;
  }
};

/// Parse one JSON document (objects, arrays, strings with \-escapes,
/// numbers, true/false/null). Throws JsonError with "line N:" context on
/// malformed input, trailing data or nesting deeper than kMaxJsonDepth.
Json parse_json(std::string_view text);

/// JSON string-body escaping: quotes, backslashes and control characters.
std::string json_escape(std::string_view text);

}  // namespace specure::util
