#include "src/util/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/util/logging.hh"

namespace sac {
namespace util {

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json &
Json::set(const std::string &key, Json value)
{
    SAC_ASSERT(type_ == Type::Object, "Json::set() on a non-object");
    for (auto &m : members_) {
        if (m.first == key) {
            m.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

Json &
Json::push(Json value)
{
    SAC_ASSERT(type_ == Type::Array, "Json::push() on a non-array");
    elements_.push_back(std::move(value));
    return *this;
}

std::size_t
Json::size() const
{
    if (type_ == Type::Object)
        return members_.size();
    if (type_ == Type::Array)
        return elements_.size();
    return 0;
}

std::int64_t
Json::asInt(std::int64_t fallback) const
{
    switch (type_) {
      case Type::Int:
        return int_;
      case Type::Uint:
        return uint_ > static_cast<std::uint64_t>(
                           std::numeric_limits<std::int64_t>::max())
                   ? std::numeric_limits<std::int64_t>::max()
                   : static_cast<std::int64_t>(uint_);
      case Type::Double:
        // Saturate: casting an out-of-range double is undefined.
        if (std::isnan(double_))
            return fallback;
        if (double_ <= -0x1p63)
            return std::numeric_limits<std::int64_t>::min();
        if (double_ >= 0x1p63)
            return std::numeric_limits<std::int64_t>::max();
        return static_cast<std::int64_t>(double_);
      default:
        return fallback;
    }
}

std::uint64_t
Json::asUint(std::uint64_t fallback) const
{
    switch (type_) {
      case Type::Int:
        return int_ < 0 ? 0 : static_cast<std::uint64_t>(int_);
      case Type::Uint:
        return uint_;
      case Type::Double:
        // Saturate: casting an out-of-range double is undefined.
        if (std::isnan(double_))
            return fallback;
        if (double_ <= 0.0)
            return 0;
        if (double_ >= 0x1p64)
            return std::numeric_limits<std::uint64_t>::max();
        return static_cast<std::uint64_t>(double_);
      default:
        return fallback;
    }
}

double
Json::asDouble(double fallback) const
{
    switch (type_) {
      case Type::Int:
        return static_cast<double>(int_);
      case Type::Uint:
        return static_cast<double>(uint_);
      case Type::Double:
        return double_;
      default:
        return fallback;
    }
}

const Json &
Json::at(std::size_t i) const
{
    SAC_ASSERT(type_ == Type::Array && i < elements_.size(),
               "Json::at() out of range");
    return elements_[i];
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &m : members_) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

Json *
Json::find(const std::string &key)
{
    return const_cast<Json *>(
        static_cast<const Json *>(this)->find(key));
}

std::string
Json::quote(std::string_view s)
{
    std::string out;
    appendQuoted(out, s);
    return out;
}

void
Json::appendQuoted(std::string &out, std::string_view s)
{
    out.reserve(out.size() + s.size() + 2);
    out += '"';
    // Bytes that need no escape are appended a run at a time.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buf;
          }
        }
    }
    out.append(s, run);
    out += '"';
}

namespace {

/** Shortest round-trippable decimal for @p v (JSON has no NaN/Inf). */
std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // Prefer the shorter representation when it round-trips.
    char shorter[32];
    std::snprintf(shorter, sizeof(shorter), "%.15g", v);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    return back == v ? shorter : buf;
}

} // namespace

void
Json::writeIndented(std::ostream &os, int indent, int depth) const
{
    const std::string pad(static_cast<std::size_t>(indent) *
                              (static_cast<std::size_t>(depth) + 1),
                          ' ');
    const std::string close_pad(
        static_cast<std::size_t>(indent) *
            static_cast<std::size_t>(depth),
        ' ');
    const char *nl = indent > 0 ? "\n" : "";

    switch (type_) {
      case Type::Null:
        os << "null";
        break;
      case Type::Bool:
        os << (bool_ ? "true" : "false");
        break;
      case Type::Int:
        os << int_;
        break;
      case Type::Uint:
        os << uint_;
        break;
      case Type::Double:
        os << formatDouble(double_);
        break;
      case Type::String:
        os << quote(string_);
        break;
      case Type::Array:
        if (elements_.empty()) {
            os << "[]";
            break;
        }
        os << '[' << nl;
        for (std::size_t i = 0; i < elements_.size(); ++i) {
            os << pad;
            elements_[i].writeIndented(os, indent, depth + 1);
            if (i + 1 < elements_.size())
                os << ',';
            os << nl;
        }
        os << close_pad << ']';
        break;
      case Type::Object:
        if (members_.empty()) {
            os << "{}";
            break;
        }
        os << '{' << nl;
        for (std::size_t i = 0; i < members_.size(); ++i) {
            os << pad << quote(members_[i].first) << ':'
               << (indent > 0 ? " " : "");
            members_[i].second.writeIndented(os, indent, depth + 1);
            if (i + 1 < members_.size())
                os << ',';
            os << nl;
        }
        os << close_pad << '}';
        break;
    }
}

void
Json::write(std::ostream &os, int indent) const
{
    writeIndented(os, indent, 0);
}

std::string
Json::dump(int indent) const
{
    std::ostringstream os;
    write(os, indent);
    return os.str();
}

namespace {

/**
 * Recursive-descent JSON parser. Strict by design: the wire protocol
 * of the sweep service carries machine-built documents, so anything
 * non-standard is an error, never silently repaired.
 */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    std::optional<Json>
    document()
    {
        std::optional<Json> v = value(0);
        if (!v)
            return std::nullopt;
        skipSpace();
        if (pos_ != text_.size())
            return fail("trailing characters after the document");
        return v;
    }

  private:
    static constexpr int maxDepth = 64;

    std::optional<Json>
    fail(const std::string &what)
    {
        if (error_) {
            *error_ = what + " at offset " + std::to_string(pos_);
        }
        return std::nullopt;
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::optional<std::string>
    stringBody()
    {
        // Called on the opening quote.
        ++pos_;
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("unescaped control character in string");
                return std::nullopt;
            }
            if (c != '\\') {
                out += c;
                ++pos_;
                continue;
            }
            if (pos_ + 1 >= text_.size())
                break;
            const char esc = text_[pos_ + 1];
            pos_ += 2;
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                  if (pos_ + 4 > text_.size()) {
                      fail("truncated \\u escape");
                      return std::nullopt;
                  }
                  unsigned cp = 0;
                  for (int i = 0; i < 4; ++i) {
                      const char h = text_[pos_ + i];
                      cp <<= 4;
                      if (h >= '0' && h <= '9')
                          cp |= static_cast<unsigned>(h - '0');
                      else if (h >= 'a' && h <= 'f')
                          cp |= static_cast<unsigned>(h - 'a' + 10);
                      else if (h >= 'A' && h <= 'F')
                          cp |= static_cast<unsigned>(h - 'A' + 10);
                      else {
                          fail("bad hex digit in \\u escape");
                          return std::nullopt;
                      }
                  }
                  pos_ += 4;
                  // Encode the code point as UTF-8. Surrogate pairs
                  // are not combined (the writer never emits them for
                  // the ASCII-controlled documents we exchange).
                  if (cp < 0x80) {
                      out += static_cast<char>(cp);
                  } else if (cp < 0x800) {
                      out += static_cast<char>(0xc0 | (cp >> 6));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  } else {
                      out += static_cast<char>(0xe0 | (cp >> 12));
                      out += static_cast<char>(0x80 |
                                               ((cp >> 6) & 0x3f));
                      out += static_cast<char>(0x80 | (cp & 0x3f));
                  }
                  break;
              }
              default:
                fail("unknown escape sequence");
                return std::nullopt;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<Json>
    number()
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        while (pos_ < text_.size() && std::isdigit(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        bool integral = true;
        if (consume('.')) {
            integral = false;
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            integral = false;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() && std::isdigit(
                       static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string tok = text_.substr(start, pos_ - start);
        if (tok.empty() || tok == "-")
            return fail("malformed number");
        if (integral) {
            errno = 0;
            char *end = nullptr;
            if (tok[0] == '-') {
                const long long v =
                    std::strtoll(tok.c_str(), &end, 10);
                if (errno == 0 && end == tok.c_str() + tok.size())
                    return Json(static_cast<std::int64_t>(v));
            } else {
                const unsigned long long v =
                    std::strtoull(tok.c_str(), &end, 10);
                if (errno == 0 && end == tok.c_str() + tok.size()) {
                    if (v <= static_cast<unsigned long long>(
                                 std::numeric_limits<
                                     std::int64_t>::max()))
                        return Json(static_cast<std::int64_t>(v));
                    return Json(static_cast<std::uint64_t>(v));
                }
            }
            // Out-of-range integer: fall through to double.
        }
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("malformed number");
        return Json(v);
    }

    std::optional<Json>
    value(int depth)
    {
        if (depth > maxDepth)
            return fail("document nests too deeply");
        skipSpace();
        if (pos_ >= text_.size())
            return fail("unexpected end of document");
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            Json obj = Json::object();
            skipSpace();
            if (consume('}'))
                return obj;
            while (true) {
                skipSpace();
                if (pos_ >= text_.size() || text_[pos_] != '"')
                    return fail("expected object key string");
                const auto key = stringBody();
                if (!key)
                    return std::nullopt;
                skipSpace();
                if (!consume(':'))
                    return fail("expected ':' after object key");
                auto member = value(depth + 1);
                if (!member)
                    return std::nullopt;
                obj.set(*key, std::move(*member));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return obj;
                return fail("expected ',' or '}' in object");
            }
        }
        if (c == '[') {
            ++pos_;
            Json arr = Json::array();
            skipSpace();
            if (consume(']'))
                return arr;
            while (true) {
                auto element = value(depth + 1);
                if (!element)
                    return std::nullopt;
                arr.push(std::move(*element));
                skipSpace();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return arr;
                return fail("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            const auto s = stringBody();
            if (!s)
                return std::nullopt;
            return Json(*s);
        }
        if (c == 't') {
            if (literal("true"))
                return Json(true);
            return fail("malformed literal");
        }
        if (c == 'f') {
            if (literal("false"))
                return Json(false);
            return fail("malformed literal");
        }
        if (c == 'n') {
            if (literal("null"))
                return Json();
            return fail("malformed literal");
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return number();
        return fail("unexpected character");
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

} // namespace

std::optional<Json>
Json::parse(const std::string &text, std::string *error)
{
    return Parser(text, error).document();
}

} // namespace util
} // namespace sac
