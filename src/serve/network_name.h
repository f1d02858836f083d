/**
 * @file
 * Interned network names: the 4-byte handle a request carries instead
 * of a string.
 *
 * Every distinct name is stored once, in a process-wide table that
 * only grows: equal names intern to equal handles, so comparing or
 * hashing a handle never touches the bytes, and str() returns a
 * reference that stays valid for the life of the process. Interning
 * is thread-safe; a handle may be read from any thread that received
 * it.
 */

#ifndef BITFUSION_SERVE_NETWORK_NAME_H
#define BITFUSION_SERVE_NETWORK_NAME_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace bitfusion {
namespace serve {

class NetworkName
{
  public:
    /** The empty name. */
    NetworkName() = default;
    /** Intern @p name (one table lookup, under the table's lock). */
    explicit NetworkName(std::string_view name);
    NetworkName(const std::string &name)
        : NetworkName(std::string_view(name))
    {}
    NetworkName(const char *name) : NetworkName(std::string_view(name)) {}

    /** The interned name; valid for the life of the process. */
    const std::string &str() const;

    /** Dense table index: 0 is the empty name, then interning order. */
    std::uint32_t index() const { return index_; }

    friend bool operator==(NetworkName a, NetworkName b)
    {
        return a.index_ == b.index_;
    }
    friend bool operator!=(NetworkName a, NetworkName b)
    {
        return a.index_ != b.index_;
    }

  private:
    std::uint32_t index_ = 0;
};

/** Prints the name itself, not the handle. */
std::ostream &operator<<(std::ostream &os, NetworkName name);

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_SERVE_NETWORK_NAME_H
