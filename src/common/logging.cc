#include "src/common/logging.h"

#include <cstdio>
#include <cstdlib>

namespace bitfusion {
namespace detail {

[[noreturn]] void
fatalExit(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

[[noreturn]] void
panicAbort(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
warnPrint(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

} // namespace detail
} // namespace bitfusion
