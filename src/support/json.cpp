#include "support/json.h"

#include "support/check.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace motune::support {

Json::Json(JsonArray a)
    : kind_(Kind::Array), array_(std::make_shared<JsonArray>(std::move(a))) {}

Json::Json(JsonObject o)
    : kind_(Kind::Object),
      object_(std::make_shared<JsonObject>(std::move(o))) {}

bool Json::asBool() const {
  MOTUNE_CHECK_MSG(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

double Json::asNumber() const {
  MOTUNE_CHECK_MSG(kind_ == Kind::Number, "JSON value is not a number");
  return number_;
}

std::int64_t Json::asInt() const {
  return static_cast<std::int64_t>(std::llround(asNumber()));
}

const std::string& Json::asString() const {
  MOTUNE_CHECK_MSG(kind_ == Kind::String, "JSON value is not a string");
  return string_;
}

const JsonArray& Json::asArray() const {
  MOTUNE_CHECK_MSG(kind_ == Kind::Array, "JSON value is not an array");
  return *array_;
}

const JsonObject& Json::asObject() const {
  MOTUNE_CHECK_MSG(kind_ == Kind::Object, "JSON value is not an object");
  return *object_;
}

const Json& Json::at(const std::string& key) const {
  const JsonObject& obj = asObject();
  auto it = obj.find(key);
  MOTUNE_CHECK_MSG(it != obj.end(), "missing JSON key: " + key);
  return it->second;
}

bool Json::has(const std::string& key) const {
  return kind_ == Kind::Object && object_->count(key) > 0;
}

const Json& Json::operator[](std::size_t i) const {
  const JsonArray& arr = asArray();
  MOTUNE_CHECK_MSG(i < arr.size(), "JSON array index out of range");
  return arr[i];
}

std::size_t Json::size() const {
  if (kind_ == Kind::Array) return array_->size();
  if (kind_ == Kind::Object) return object_->size();
  MOTUNE_CHECK_MSG(false, "size() on a scalar JSON value");
  return 0;
}

namespace {

void escapeTo(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\t': out += "\\t"; break;
    case '\r': out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
  out += '"';
}

__extension__ using u128 = unsigned __int128;

// The fast path of numberTo() covers finite |v| in [2^-50, 2^128): there
// the 53-bit significand times 5^p (p <= 32) or times 2^e (e <= 75) fits
// 128 bits, so the 17 digits round exactly in integer arithmetic.
constexpr int kFastMinExp2 = -50;
constexpr int kFastMaxExp2 = 127;
constexpr std::uint64_t kDigits17Lo = 10'000'000'000'000'000ull; // 10^16
constexpr std::uint64_t kDigits17Hi = 100'000'000'000'000'000ull; // 10^17

constexpr std::array<u128, 33> kPow5 = [] {
  std::array<u128, 33> pow{};
  pow[0] = 1;
  for (std::size_t i = 1; i < pow.size(); ++i) pow[i] = pow[i - 1] * 5;
  return pow;
}();

constexpr std::array<u128, 23> kPow10 = [] {
  std::array<u128, 23> pow{};
  pow[0] = 1;
  for (std::size_t i = 1; i < pow.size(); ++i) pow[i] = pow[i - 1] * 10;
  return pow;
}();

/// "00" "01" ... "99": two decimal digits per entry.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

/// Writes the `pairs` * 2 low digits of `x` ending just before `end`.
void digitPairsTo(std::uint32_t x, int pairs, char* end) {
  for (int i = 0; i < pairs; ++i) {
    end -= 2;
    std::memcpy(end, &kDigitPairs[2 * (x % 100)], 2);
    x /= 100;
  }
}

/// m * 2^e * 10^p, floored, and whether rounding it half-even adds one.
struct Scaled {
  std::uint64_t floor;
  bool roundUp;
};

Scaled scale(std::uint64_t m, int e, int p) {
  if (p >= 0) {
    const u128 n = static_cast<u128>(m) * kPow5[static_cast<std::size_t>(p)];
    const int shift = e + p; // m * 5^p * 2^(e+p)
    if (shift >= 0) return {static_cast<std::uint64_t>(n << shift), false};
    const int r = -shift; // < 128: the quotient keeps at least 54 bits
    const u128 rem = n & ((static_cast<u128>(1) << r) - 1);
    const u128 half = static_cast<u128>(1) << (r - 1);
    const auto q = static_cast<std::uint64_t>(n >> r);
    return {q, rem > half || (rem == half && (q & 1) != 0)};
  }
  // v >= 10^17 > 2^56, so e >= 4 and m * 2^e is an integer below 2^128.
  const u128 n = static_cast<u128>(m) << e;
  const u128 d = kPow10[static_cast<std::size_t>(-p)];
  const auto q = static_cast<std::uint64_t>(n / d);
  const u128 twice = 2 * (n - static_cast<u128>(q) * d);
  return {q, twice > d || (twice == d && (q & 1) != 0)};
}

/// printf("%.17g", v) for finite |v| in [2^kFastMinExp2, 2^(kFastMaxExp2 +
/// 1)), written at `out`; returns the end of the text.
char* printG17(std::uint64_t bits, char* out) {
  const int e2 = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const std::uint64_t m = (bits & ((1ull << 52) - 1)) | (1ull << 52);
  const int e = e2 - 52;
  // floor(e2 * log10(2)) <= x = floor(log10(v)) <= that + 1.
  int x = (e2 * 78913) >> 18;
  Scaled s = scale(m, e, 16 - x);
  if (s.floor >= kDigits17Hi) s = scale(m, e, 16 - ++x);
  std::uint64_t q = s.floor + (s.roundUp ? 1 : 0);
  if (q == kDigits17Hi) { // rounding carried into the next decade
    q = kDigits17Lo;
    ++x;
  }

  char digits[17];
  const auto hi = static_cast<std::uint32_t>(q / 100'000'000); // 9 digits
  digitPairsTo(static_cast<std::uint32_t>(q % 100'000'000), 4, digits + 17);
  digitPairsTo(hi, 4, digits + 9);
  digits[0] = static_cast<char>('0' + hi / 100'000'000);
  int n = 17;
  while (digits[n - 1] == '0') --n;

  if (bits >> 63) *out++ = '-';
  const auto copy = [&](int from, int to) {
    std::memcpy(out, digits + from, static_cast<std::size_t>(to - from));
    out += to - from;
  };
  if (x >= -4 && x < 17) { // fixed notation
    if (x < 0) {
      *out++ = '0';
      *out++ = '.';
      for (int i = -1; i > x; --i) *out++ = '0';
      copy(0, n);
    } else if (n <= x + 1) {
      copy(0, n);
      for (int i = n; i <= x; ++i) *out++ = '0';
    } else {
      copy(0, x + 1);
      *out++ = '.';
      copy(x + 1, n);
    }
    return out;
  }
  *out++ = digits[0];
  if (n > 1) {
    *out++ = '.';
    copy(1, n);
  }
  *out++ = 'e';
  *out++ = x < 0 ? '-' : '+';
  std::memcpy(out, &kDigitPairs[2 * static_cast<std::size_t>(x < 0 ? -x : x)],
              2); // |x| <= 38
  return out + 2;
}

} // namespace

char* numberTo(double v, char* out) {
  // Integers print exactly; every other double as printf's "%.17g", which
  // round-trips it: in integer arithmetic where printG17 covers it, else
  // through to_chars with a precision, which is specified as that printf.
  if (std::abs(v) < 1e15 && v == std::trunc(v))
    return std::to_chars(out, out + kNumberChars, static_cast<std::int64_t>(v))
        .ptr;
  const auto bits = std::bit_cast<std::uint64_t>(v);
  const int e2 = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  if (e2 >= kFastMinExp2 && e2 <= kFastMaxExp2) return printG17(bits, out);
  return std::to_chars(out, out + kNumberChars, v, std::chars_format::general,
                       17)
      .ptr;
}

void numberTo(double v, std::string& out) {
  char buf[kNumberChars];
  out.append(buf, numberTo(v, buf));
}

void Json::dumpTo(std::string& out, int indent, int depth) const {
  // Pretty-printing starts each element on a line indented to its level;
  // compact output (indent < 0) adds nothing.
  const auto newline = [&](int level) {
    if (indent < 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * level, ' ');
  };
  switch (kind_) {
  case Kind::Null: out += "null"; return;
  case Kind::Bool: out += bool_ ? "true" : "false"; return;
  case Kind::Number: numberTo(number_, out); return;
  case Kind::String: escapeTo(string_, out); return;
  case Kind::Array: {
    if (array_->empty()) {
      out += "[]";
      return;
    }
    out += '[';
    bool first = true;
    for (const Json& v : *array_) {
      if (!first) out += ',';
      newline(depth + 1);
      v.dumpTo(out, indent, depth + 1);
      first = false;
    }
    newline(depth);
    out += ']';
    return;
  }
  case Kind::Object: {
    if (object_->empty()) {
      out += "{}";
      return;
    }
    out += '{';
    bool first = true;
    for (const auto& [key, value] : *object_) {
      if (!first) out += ',';
      newline(depth + 1);
      escapeTo(key, out);
      out += indent >= 0 ? ": " : ":";
      value.dumpTo(out, indent, depth + 1);
      first = false;
    }
    newline(depth);
    out += '}';
    return;
  }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

namespace {

class Parser {
public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    const Json v = value();
    skipWs();
    MOTUNE_CHECK_MSG(pos_ == text_.size(),
                     "trailing characters after JSON value at " + where());
    return v;
  }

private:
  std::string where() const { return "offset " + std::to_string(pos_); }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    MOTUNE_CHECK_MSG(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    MOTUNE_CHECK_MSG(peek() == c, std::string("expected '") + c + "' at " +
                                      where());
    ++pos_;
  }

  bool consume(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) == 0) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Json value() {
    skipWs();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return Json(string());
    if (consume("true")) return Json(true);
    if (consume("false")) return Json(false);
    if (consume("null")) return Json(nullptr);
    return number();
  }

  Json object() {
    expect('{');
    JsonObject obj;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skipWs();
      std::string key = string();
      skipWs();
      expect(':');
      obj.emplace(std::move(key), value());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(obj));
    }
  }

  Json array() {
    expect('[');
    JsonArray arr;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(value());
      skipWs();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(arr));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      MOTUNE_CHECK_MSG(pos_ < text_.size(), "unterminated JSON string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      MOTUNE_CHECK_MSG(pos_ < text_.size(), "dangling escape in JSON string");
      const char esc = text_[pos_++];
      switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u': {
        unsigned code = 0;
        const char* hex = text_.data() + pos_;
        MOTUNE_CHECK_MSG(pos_ + 4 <= text_.size() &&
                             std::from_chars(hex, hex + 4, code, 16).ptr ==
                                 hex + 4,
                         "bad \\u escape");
        pos_ += 4;
        MOTUNE_CHECK_MSG(code < 0x80, "non-ASCII \\u escapes unsupported");
        out += static_cast<char>(code);
        break;
      }
      default:
        MOTUNE_CHECK_MSG(false, "invalid escape in JSON string");
      }
    }
  }

  bool digitAt(std::size_t i) const {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  }

  // Steps over 1*DIGIT; refuses an empty run.
  void digits() {
    MOTUNE_CHECK_MSG(digitAt(pos_), "invalid JSON number at " + where());
    while (digitAt(pos_)) ++pos_;
  }

  // RFC 8259: [ "-" ] ( "0" / 1-9 *DIGIT ) [ "." 1*DIGIT ]
  // [ ( "e" / "E" ) [ "-" / "+" ] 1*DIGIT ], read exactly by from_chars.
  // A value outside the double range is refused rather than clamped.
  Json number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (digitAt(pos_) && text_[pos_] == '0') {
      ++pos_;
      MOTUNE_CHECK_MSG(!digitAt(pos_), "invalid JSON number at " + where());
    } else {
      digits();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      digits();
    }
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, v);
    MOTUNE_CHECK_MSG(ec == std::errc() && end == text_.data() + pos_,
                     "invalid JSON number at " + where());
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

} // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

void hexWordTo(std::uint64_t word, std::string& out) {
  char digits[16];
  const char* end = std::to_chars(digits, digits + 16, word, 16).ptr;
  out += "0x";
  out.append(static_cast<std::size_t>(16 - (end - digits)), '0');
  out.append(static_cast<const char*>(digits), end);
}

Json hexWord(std::uint64_t word) {
  std::string text;
  hexWordTo(word, text);
  return Json(std::move(text));
}

std::uint64_t hexWordValue(const Json& json) {
  const std::string& s = json.asString();
  MOTUNE_CHECK_MSG(s.rfind("0x", 0) == 0, "malformed hex word: " + s);
  std::uint64_t word = 0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data() + 2, last, word, 16);
  MOTUNE_CHECK_MSG(ec == std::errc() && end == last,
                   "malformed hex word: " + s);
  return word;
}

} // namespace motune::support
