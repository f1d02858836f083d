#include "src/common/output.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/logging.h"

namespace bitfusion {

void
writeOutput(const std::string &path, std::string_view bytes)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (file == nullptr)
        BF_FATAL("cannot write '", path, "': ", std::strerror(errno));
    const bool written =
        std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
    const int writeErrno = errno;
    // A full device may fail only the flush that the close does.
    if (std::fclose(file) != 0 || !written) {
        BF_FATAL("cannot write '", path,
                 "': ", std::strerror(written ? errno : writeErrno));
    }
}

} // namespace bitfusion
