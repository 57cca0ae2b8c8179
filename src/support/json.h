// Minimal JSON reader/writer (no external dependencies).
//
// Used to persist tuning artifacts (autotune/artifact.h): the static
// optimizer runs once at "compile time", its Pareto set is saved next to
// the binary, and the runtime loads it on startup — the deployment story
// of the paper's multi-versioned executables, without recompiling.
//
// Supports the full JSON grammar except \uXXXX escapes beyond ASCII.
// Numbers follow RFC 8259 strictly (no "+5", "01", "1." or ".5") and must
// fit a double; every finite double dump() writes parses back bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace motune::support {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

/// An immutable-ish JSON value (null, bool, number, string, array, object).
class Json {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() : kind_(Kind::Null) {}
  Json(std::nullptr_t) : kind_(Kind::Null) {} // NOLINT(google-explicit-*)
  Json(bool b) : kind_(Kind::Bool), bool_(b) {} // NOLINT
  Json(double v) : kind_(Kind::Number), number_(v) {} // NOLINT
  Json(int v) : kind_(Kind::Number), number_(v) {} // NOLINT
  Json(std::int64_t v) // NOLINT
      : kind_(Kind::Number), number_(static_cast<double>(v)) {}
  Json(std::uint64_t v) // NOLINT
      : kind_(Kind::Number), number_(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::String), string_(s) {} // NOLINT
  Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {} // NOLINT
  Json(JsonArray a); // NOLINT
  Json(JsonObject o); // NOLINT

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }

  /// Typed accessors; MOTUNE_CHECK on kind mismatch.
  bool asBool() const;
  double asNumber() const;
  std::int64_t asInt() const;
  const std::string& asString() const;
  const JsonArray& asArray() const;
  const JsonObject& asObject() const;

  /// Object field access; throws if not an object or key missing.
  const Json& at(const std::string& key) const;
  bool has(const std::string& key) const;

  /// Array element access.
  const Json& operator[](std::size_t i) const;
  std::size_t size() const;

  /// Serialization. `indent` < 0 emits compact single-line JSON.
  std::string dump(int indent = 2) const;

  /// Parsing; throws support::CheckError with position info on bad input.
  static Json parse(const std::string& text);

private:
  void dumpTo(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

/// Appends the text dump() writes for the number `v`: integers below 1e15
/// in magnitude in plain decimal, any other finite value as printf's
/// "%.17g", which parse() reads back bit for bit (-0.0 prints as 0).
/// Encoders that write JSON text by hand use this for their numbers.
///
/// For |v| in [2^-50, 2^128), the magnitudes of the times, resources and
/// genome values journals and artifacts hold, the 17 significant digits are rounded half-even in
/// 128-bit integer arithmetic (the significand times 5^p, or times 2^e
/// divided by 10^-p, is exact there) and written from a two-digit table,
/// at about half the cost of std::to_chars. Values outside that range
/// fall back to to_chars(general, 17), which is specified as the same
/// printf; the bytes are those printf writes either way
/// (JsonNumber.NumberTextMatchesPrintfG17).
void numberTo(double v, std::string& out);

/// The most bytes numberTo writes for one number.
inline constexpr std::size_t kNumberChars = 24;
/// numberTo's text written at `out`, which has room for kNumberChars
/// bytes; returns the end of the text.
char* numberTo(double v, char* out);

/// Appends the JSON array of `values`, each number as numberTo writes it:
/// the text dump() writes for the same array. The array is written in
/// place in one reserved stretch of `out`, not number by number.
template <class T>
void numbersTo(const std::vector<T>& values, std::string& out) {
  const std::size_t at = out.size();
  out.resize(at + 2 + values.size() * (kNumberChars + 1));
  char* p = out.data() + at;
  *p++ = '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *p++ = ',';
    p = numberTo(static_cast<double>(values[i]), p);
  }
  *p++ = ']';
  out.resize(static_cast<std::size_t>(p - out.data()));
}

/// Bit-exact carrier for a 64-bit word, as the string "0x%016x": JSON
/// numbers are doubles (no exact integers past 2^53), dump() prints -0.0 as
/// 0, and non-finite values have no JSON form.
Json hexWord(std::uint64_t word);
/// Appends hexWord(word)'s text, without quotes.
void hexWordTo(std::uint64_t word, std::string& out);
std::uint64_t hexWordValue(const Json& json);

/// Bit-exact doubles, alone or nested in vectors: each value travels as
/// the hexWord of its bit pattern.
inline Json bitsToJson(double v) {
  return hexWord(std::bit_cast<std::uint64_t>(v));
}

template <class T> Json bitsToJson(const std::vector<T>& values) {
  JsonArray out;
  for (const T& v : values) out.push_back(bitsToJson(v));
  return out;
}

inline void bitsFromJson(const Json& json, double& out) {
  out = std::bit_cast<double>(hexWordValue(json));
}

template <class T> void bitsFromJson(const Json& json, std::vector<T>& out) {
  out.assign(json.asArray().size(), T{});
  for (std::size_t i = 0; i < out.size(); ++i) bitsFromJson(json[i], out[i]);
}

} // namespace motune::support
