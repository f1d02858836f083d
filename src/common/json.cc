/**
 * @file
 * JSON serialization: the streaming Writer and the Value facade.
 */

#include "src/common/json.h"

#include <charconv>
#include <cmath>

#include "src/common/logging.h"

namespace bitfusion {
namespace json {

// ---------------------------------------------------------------- Writer

void
Writer::appendQuoted(std::string &out, std::string_view s)
{
    static const char hex[] = "0123456789abcdef";
    out += '"';
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            out += "\\u00";
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    out.append(s.data() + run, s.size() - run);
    out += '"';
}

void
Writer::prefix()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (counts_.empty())
        return;
    if (counts_.back()++ > 0)
        out_ += ',';
    if (indent_ > 0) {
        out_ += '\n';
        out_.append(static_cast<std::size_t>(indent_) * counts_.size(),
                    ' ');
    }
}

Writer &
Writer::open(char bracket)
{
    prefix();
    out_ += bracket;
    counts_.push_back(0);
    return *this;
}

Writer &
Writer::close(char bracket)
{
    BF_ASSERT(!counts_.empty() && !afterKey_,
              "unbalanced JSON writer close");
    const bool empty = counts_.back() == 0;
    counts_.pop_back();
    if (!empty && indent_ > 0) {
        out_ += '\n';
        out_.append(static_cast<std::size_t>(indent_) * counts_.size(),
                    ' ');
    }
    out_ += bracket;
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    prefix();
    appendQuoted(out_, k);
    out_ += indent_ > 0 ? ": " : ":";
    afterKey_ = true;
    return *this;
}

Writer &
Writer::null()
{
    prefix();
    out_ += "null";
    return *this;
}

Writer &
Writer::value(bool b)
{
    prefix();
    out_ += b ? "true" : "false";
    return *this;
}

Writer &
Writer::value(double v)
{
    if (!std::isfinite(v))
        return null(); // JSON has no inf/nan.
    prefix();
    // %.12g: std::to_chars with general format and an explicit
    // precision is specified to match printf's %.*g.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                   std::chars_format::general, 12);
    out_.append(buf, res.ptr);
    return *this;
}

Writer &
Writer::value(std::string_view s)
{
    prefix();
    appendQuoted(out_, s);
    return *this;
}

// ----------------------------------------------------------------- Value

Value
Value::array()
{
    Value v;
    v.kind_ = Kind::Array;
    return v;
}

Value
Value::object()
{
    Value v;
    v.kind_ = Kind::Object;
    return v;
}

Value &
Value::set(const std::string &key, Value v)
{
    BF_ASSERT(kind_ == Kind::Object, "set() on non-object JSON value");
    for (auto &kv : obj_) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return *this;
        }
    }
    obj_.emplace_back(key, std::move(v));
    return *this;
}

Value &
Value::push(Value v)
{
    BF_ASSERT(kind_ == Kind::Array, "push() on non-array JSON value");
    arr_.push_back(std::move(v));
    return *this;
}

std::string
Value::quote(const std::string &s)
{
    std::string out;
    Writer::appendQuoted(out, s);
    return out;
}

void
Value::write(Writer &w) const
{
    switch (kind_) {
      case Kind::Null:
        w.null();
        break;
      case Kind::Bool:
        w.value(bool_);
        break;
      case Kind::Int:
        w.value(int_);
        break;
      case Kind::Uint:
        w.value(uint_);
        break;
      case Kind::Double:
        w.value(double_);
        break;
      case Kind::String:
        w.value(str_);
        break;
      case Kind::Array:
        w.beginArray();
        for (const Value &v : arr_)
            v.write(w);
        w.endArray();
        break;
      case Kind::Object:
        w.beginObject();
        for (const auto &kv : obj_) {
            w.key(kv.first);
            kv.second.write(w);
        }
        w.endObject();
        break;
    }
}

std::string
Value::dump(int indent) const
{
    Writer w(indent);
    write(w);
    return w.take();
}

} // namespace json
} // namespace bitfusion
