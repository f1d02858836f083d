/**
 * @file
 * Shared flag-value parsers for the CLI binaries (tools/, bench/).
 *
 * Both parsers consume the value following argv[i] and advance i;
 * on a missing or malformed value they print a diagnostic naming
 * the flag and exit with the usage status (2). Counts and seeds go
 * through uintArg (exact, overflow-checked); time-valued flags go
 * through doubleArg (fractions allowed, non-finite rejected). Both
 * read numbers with parseDecimal().
 *
 * The --timing parser with the same contract is timingArg() in
 * core/layer_walk.h, beside the TimingModel enum it produces --
 * hosting it here would invert the common -> core layering.
 */

#ifndef BITFUSION_COMMON_CLI_H
#define BITFUSION_COMMON_CLI_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace bitfusion {
namespace cli {

/**
 * Parse all of @p token as a nonnegative finite decimal with
 * std::from_chars' grammar, as the trace reader does: no blank, no
 * hex, no "inf"/"nan", nothing trailing, and no sign (unlike the
 * trace reader, not even "-0"). False on anything else.
 */
inline bool
parseDecimal(std::string_view token, double &out)
{
    const char *end = token.data() + token.size();
    const auto res = std::from_chars(token.data(), end, out);
    return res.ec == std::errc() && res.ptr == end &&
           std::isfinite(out) && !std::signbit(out);
}

/** Integer twin of the above: digits only, overflow rejected. */
inline bool
parseDecimal(std::string_view token, std::uint64_t &out)
{
    const char *end = token.data() + token.size();
    const auto res = std::from_chars(token.data(), end, out);
    return res.ec == std::errc() && res.ptr == end;
}

/** Non-negative finite double argument (e.g. --mean-gap-us). */
inline double
doubleArg(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
    }
    double v = 0.0;
    if (!parseDecimal(argv[++i], v)) {
        std::fprintf(stderr,
                     "%s needs a non-negative finite number, got "
                     "'%s'\n",
                     flag, argv[i]);
        std::exit(2);
    }
    return v;
}

/**
 * Non-negative integer argument, exact up to 64 bits (seeds).
 * @p max rejects values the call site would otherwise truncate when
 * narrowing (e.g. pass UINT32_MAX for flags stored in unsigned).
 */
inline std::uint64_t
uintArg(int argc, char **argv, int &i, const char *flag,
        std::uint64_t max = UINT64_MAX)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
    }
    std::uint64_t v = 0;
    if (!parseDecimal(argv[++i], v) || v > max) {
        std::fprintf(stderr,
                     "%s needs an integer in [0, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(max),
                     argv[i]);
        std::exit(2);
    }
    return v;
}

} // namespace cli
} // namespace bitfusion

#endif // BITFUSION_COMMON_CLI_H
