/**
 * @file
 * writeOutput: the one way the CLIs write an output file.
 */

#ifndef BITFUSION_COMMON_OUTPUT_H
#define BITFUSION_COMMON_OUTPUT_H

#include <string>
#include <string_view>

namespace bitfusion {

/**
 * Create or truncate @p path (through a symlink, its target) and write
 * @p bytes. The write and the close are both checked: on failure this
 * exits 1 through BF_FATAL, naming the path and the OS reason.
 */
void writeOutput(const std::string &path, std::string_view bytes);

} // namespace bitfusion

#endif // BITFUSION_COMMON_OUTPUT_H
