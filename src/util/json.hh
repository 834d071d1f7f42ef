/**
 * @file
 * Minimal ordered JSON document builder used by the telemetry layer
 * (counter serialization, run manifests, Chrome trace exports) and,
 * since the sweep service exists, a strict parser for the documents
 * the wire protocol carries. Object members keep insertion order so
 * every emitted document is byte-stable across runs.
 */

#ifndef SAC_UTIL_JSON_HH
#define SAC_UTIL_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sac {
namespace util {

/** One JSON value: null, bool, number, string, array or object. */
class Json
{
  public:
    /** The JSON value kinds. */
    enum class Type
    {
        Null,
        Bool,
        Int,
        Uint,
        Double,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool v) : type_(Type::Bool), bool_(v) {}
    Json(int v) : type_(Type::Int), int_(v) {}
    Json(std::int64_t v) : type_(Type::Int), int_(v) {}
    Json(std::uint64_t v) : type_(Type::Uint), uint_(v) {}
    Json(double v) : type_(Type::Double), double_(v) {}
    Json(const char *v) : type_(Type::String), string_(v) {}
    Json(std::string v) : type_(Type::String), string_(std::move(v)) {}

    /** An empty JSON object ({}). */
    static Json object();

    /** An empty JSON array ([]). */
    static Json array();

    /**
     * Parse @p text as one JSON document (strict: no comments, no
     * trailing commas, nothing but whitespace after the value).
     * Returns nullopt on malformed input, with a position-qualified
     * diagnostic in @p error when given. Numbers parse as Int when
     * they fit a signed 64-bit integer, Uint when only an unsigned
     * one, Double otherwise.
     */
    static std::optional<Json> parse(const std::string &text,
                                     std::string *error = nullptr);

    Type type() const { return type_; }

    bool isNull() const { return type_ == Type::Null; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }
    bool isString() const { return type_ == Type::String; }
    bool isBool() const { return type_ == Type::Bool; }

    /** Is this any of the three number kinds? */
    bool isNumber() const
    {
        return type_ == Type::Int || type_ == Type::Uint ||
               type_ == Type::Double;
    }

    /** String payload, or @p fallback for non-strings. */
    const std::string &asString(const std::string &fallback = "") const
    {
        return type_ == Type::String ? string_ : fallback;
    }

    /** Bool payload, or @p fallback for non-bools. */
    bool asBool(bool fallback = false) const
    {
        return type_ == Type::Bool ? bool_ : fallback;
    }

    /**
     * Numeric payload as a signed integer: doubles truncate, values
     * outside the int64 range saturate, NaN yields @p fallback.
     */
    std::int64_t asInt(std::int64_t fallback = 0) const;

    /**
     * Numeric payload as an unsigned integer: negatives clamp to 0,
     * values above the uint64 range saturate, NaN yields @p fallback.
     */
    std::uint64_t asUint(std::uint64_t fallback = 0) const;

    /** Numeric payload as a double. */
    double asDouble(double fallback = 0.0) const;

    /**
     * Add (or overwrite) member @p key of an object. Calling set() on
     * a non-object is a programming error (panics).
     */
    Json &set(const std::string &key, Json value);

    /** Append @p value to an array; panics on non-arrays. */
    Json &push(Json value);

    /** Number of members (object) or elements (array). */
    std::size_t size() const;

    /** Member lookup; nullptr when absent or not an object. */
    const Json *find(const std::string &key) const;
    Json *find(const std::string &key);

    /** Element @p i of an array; panics when out of range. */
    const Json &at(std::size_t i) const;

    /** All elements of an array (empty for non-arrays). */
    const std::vector<Json> &elements() const { return elements_; }

    /** All members of an object (empty for non-objects). */
    const std::vector<std::pair<std::string, Json>> &members() const
    {
        return members_;
    }

    /** Serialize with @p indent spaces per level (0 = compact). */
    std::string dump(int indent = 2) const;

    /** Serialize into @p os (same format as dump()). */
    void write(std::ostream &os, int indent = 2) const;

    /** Escape @p s as a quoted JSON string literal. */
    static std::string quote(std::string_view s);

    /** Append quote(@p s) to @p out without a temporary. */
    static void appendQuoted(std::string &out, std::string_view s);

  private:
    void writeIndented(std::ostream &os, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> elements_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace util
} // namespace sac

#endif // SAC_UTIL_JSON_HH
