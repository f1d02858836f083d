/**
 * @file
 * JSON output without an external dependency.
 *
 * Writer is the one serializer: it streams begin/end, key and value
 * calls straight into a single string, so report code emits its
 * document without building a tree first. Value is a small
 * insertion-ordered document tree for callers that assemble a
 * document piecemeal (and may overwrite a member); its dump() walks
 * the tree into a Writer, so both produce byte-identical text.
 */

#ifndef BITFUSION_COMMON_JSON_H
#define BITFUSION_COMMON_JSON_H

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace bitfusion {
namespace json {

/**
 * Streaming JSON emitter. With @p indent > 0 each member or element
 * goes on its own line, indented by that step per nesting level;
 * empty containers print as [] and {}. Doubles print as %.12g, and a
 * non-finite double prints as null (JSON has no inf/nan). Callers
 * must balance begin/end calls and precede every object member with
 * key().
 */
class Writer
{
  public:
    explicit Writer(int indent = 0) : indent_(indent) {}

    Writer &beginObject() { return open('{'); }
    Writer &endObject() { return close('}'); }
    Writer &beginArray() { return open('['); }
    Writer &endArray() { return close(']'); }

    /** Start an object member; the next call writes its value. */
    Writer &key(std::string_view k);

    Writer &value(bool b);
    Writer &value(double v);
    Writer &value(std::string_view s);
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(const std::string &s)
    {
        return value(std::string_view(s));
    }
    Writer &null();

    /** Any integer type except bool (which has its own overload). */
    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Writer &value(T v)
    {
        prefix();
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        out_.append(buf, res.ptr);
        return *this;
    }

    /** Move the text out; the writer is spent afterwards. */
    std::string take() { return std::move(out_); }

    /** Append @p s to @p out quoted and escaped per RFC 8259. */
    static void appendQuoted(std::string &out, std::string_view s);

  private:
    Writer &open(char bracket);
    Writer &close(char bracket);
    /** Separator, newline and indent before a member or element. */
    void prefix();

    std::string out_;
    int indent_;
    /** Members/elements written so far in each open container. */
    std::vector<std::size_t> counts_;
    /** A key was just written: the next value continues its line. */
    bool afterKey_ = false;
};

/** One JSON value (null / bool / number / string / array / object). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,
        Uint,
        Double,
        String,
        Array,
        Object
    };

    Value() : kind_(Kind::Null) {}
    Value(bool b) : kind_(Kind::Bool), bool_(b) {}
    Value(std::int64_t v) : kind_(Kind::Int), int_(v) {}
    Value(std::uint64_t v) : kind_(Kind::Uint), uint_(v) {}
    Value(int v) : kind_(Kind::Int), int_(v) {}
    Value(unsigned v) : kind_(Kind::Uint), uint_(v) {}
    Value(double v) : kind_(Kind::Double), double_(v) {}
    Value(std::string s) : kind_(Kind::String), str_(std::move(s)) {}
    Value(const char *s) : kind_(Kind::String), str_(s) {}

    /** Empty array value. */
    static Value array();
    /** Empty object value. */
    static Value object();

    Kind kind() const { return kind_; }

    /** Object: set a member (insertion-ordered). Returns *this. */
    Value &set(const std::string &key, Value v);
    /** Array: append an element. Returns *this. */
    Value &push(Value v);

    /** Serialize; @p indent > 0 pretty-prints with that step. */
    std::string dump(int indent = 0) const;

    /** Escape and quote a string per RFC 8259. */
    static std::string quote(const std::string &s);

  private:
    void write(Writer &w) const;

    Kind kind_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string str_;
    std::vector<Value> arr_;
    std::vector<std::pair<std::string, Value>> obj_;
};

} // namespace json
} // namespace bitfusion

#endif // BITFUSION_COMMON_JSON_H
