/**
 * @file
 * Differential tests of the trace-file parser: serve::parseTrace (one
 * string_view pass with std::from_chars) against the original
 * istringstream/strtod parser kept in tests/trace_reference.cc.
 *
 * On formatTrace output of seeded specs, and on seeded rewrites of it
 * (CRLF, tabs, \v and \f separators, blank padding, comment and blank
 * lines, no final newline, leading zeros, exponent and ".5" forms),
 * both parsers must return the same requests, times compared bit for
 * bit. Where the two number grammars differ, the oracle accepts and
 * the new parser rejects exactly the documented forms
 * (rejectedForm()); a seeded mutation fuzzer checks that no other
 * disagreement exists and that both report the same diagnostic.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/prng.h"
#include "src/dnn/model_zoo.h"
#include "src/serve/trace.h"
#include "tests/trace_reference.h"

namespace bitfusion {
namespace {

using serve::ArrivalProcess;
using serve::InferenceRequest;
using serve::TraceSpec;

// A request is four numbers and an interned name handle: copying a
// trace is a memcpy, and no request owns a heap string.
static_assert(sizeof(InferenceRequest) == 32);
static_assert(std::is_trivially_copyable_v<InferenceRequest>);

std::uint64_t
bits(double x)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

void
expectSameRequests(const std::vector<InferenceRequest> &want,
                   const std::vector<InferenceRequest> &got,
                   const std::string &label)
{
    ASSERT_EQ(want.size(), got.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i].id, got[i].id) << label << " #" << i;
        ASSERT_EQ(want[i].network.str(), got[i].network.str())
            << label << " #" << i;
        ASSERT_EQ(want[i].samples, got[i].samples) << label << " #" << i;
        ASSERT_EQ(bits(want[i].arrivalUs), bits(got[i].arrivalUs))
            << label << " #" << i;
        ASSERT_EQ(bits(want[i].deadlineUs), bits(got[i].deadlineUs))
            << label << " #" << i;
    }
}

/** Both parsers accept @p text and agree on every request. */
void
expectBothAgree(const std::string &text, const std::string &label)
{
    expectSameRequests(serve::referenceParseTrace(text),
                       serve::parseTrace(text), label);
}

/** A seeded spec: Poisson or bursty, with or without deadlines. */
TraceSpec
seededSpec(std::uint64_t seed)
{
    Prng prng(seed);
    TraceSpec spec;
    spec.seed = seed;
    spec.requests = 20 + prng.below(200);
    // Gaps across many magnitudes exercise every shortest-decimal
    // shape: integers, fractions, and exponent forms.
    const double gaps[] = {1e-3, 0.37, 7.5, 333.3, 5000.0, 4e7, 3e15};
    spec.meanGapUs = gaps[prng.below(7)];
    spec.maxSamples = 1 + static_cast<unsigned>(prng.below(16));
    if (prng.below(2) != 0)
        spec.deadlineSlackUs = spec.meanGapUs * (1.0 + prng.nextDouble());
    const auto &zoo = zoo::names();
    if (prng.below(2) != 0) {
        for (std::size_t i = 0, n = 1 + prng.below(3); i < n; ++i)
            spec.networks.push_back(zoo[prng.below(zoo.size())]);
    }
    if (prng.below(2) != 0) {
        spec.process = ArrivalProcess::Mmpp;
        spec.burstRateMultiplier = 2.0 + 10.0 * prng.nextDouble();
        spec.meanBurstUs = spec.meanGapUs * 20.0;
        spec.meanCalmUs = spec.meanGapUs * 200.0;
        if (prng.below(2) != 0) {
            spec.flashStartUs = spec.meanGapUs * 30.0;
            spec.flashDurationUs = spec.meanGapUs * 20.0;
            spec.flashMultiplier = 4.0;
        }
    }
    // Names past the small-string buffer, a few of them or hundreds
    // of distinct ones, short and long mixed.
    if (prng.below(3) == 0) {
        const bool many = prng.below(2) != 0;
        const std::size_t names = many ? 200 + prng.below(300)
                                       : 1 + prng.below(3);
        if (many)
            spec.requests = 2 * names;
        spec.networks.clear();
        for (std::size_t i = 0; i < names; ++i) {
            spec.networks.push_back(
                (i % 3 == 0 ? "n" : "a-name-longer-than-fifteen-bytes-") +
                std::to_string(seed) + "-" + std::to_string(i));
        }
    }
    return spec;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        lines.push_back(text.substr(start, nl - start));
        start = nl == std::string::npos ? text.size() : nl + 1;
    }
    return lines;
}

std::vector<std::string>
splitFields(const std::string &line)
{
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (start <= line.size()) {
        const std::size_t sp = line.find(' ', start);
        fields.push_back(line.substr(start, sp - start));
        if (sp == std::string::npos)
            break;
        start = sp + 1;
    }
    return fields;
}

/**
 * Another spelling of the decimal @p s with exactly the same value:
 * leading zeros, an integer mantissa with a signed exponent ("5e+3"),
 * or a leading-point mantissa (".5", ".125e+2").
 */
std::string
respellNumber(const std::string &s, Prng &prng)
{
    const std::size_t e = s.find_first_of("eE");
    const std::string mantissa = s.substr(0, e);
    int exponent = 0;
    if (e != std::string::npos)
        exponent = std::atoi(s.c_str() + e + 1);
    std::string digits;
    for (char c : mantissa) {
        if (c == '.')
            exponent -= static_cast<int>(mantissa.size() -
                                         mantissa.find('.') - 1);
        else
            digits += c;
    }
    const std::size_t nz = digits.find_first_not_of('0');
    digits = nz == std::string::npos ? "0" : digits.substr(nz);
    const auto signedExp = [](int x) {
        return (x >= 0 ? "e+" : "e") + std::to_string(x);
    };
    switch (prng.below(4)) {
      case 0:
        return std::string(1 + prng.below(3), '0') + s;
      case 1:
        return digits + signedExp(exponent);
      case 2:
        return "." + digits +
               signedExp(exponent + static_cast<int>(digits.size()));
      default:
        // A bare ".digits" when the value lies in [0, 1).
        if (exponent < 0 &&
            static_cast<int>(digits.size()) <= -exponent) {
            const std::size_t zeros =
                static_cast<std::size_t>(-exponent) - digits.size();
            return "." + std::string(zeros, '0') + digits;
        }
        return s;
    }
}

std::string
blanks(Prng &prng, const char *alphabet, std::size_t maxLen)
{
    std::string out;
    const std::size_t n = std::strlen(alphabet);
    for (std::size_t i = 0, len = prng.below(maxLen + 1); i < len; ++i)
        out += alphabet[prng.below(n)];
    return out;
}

/** A seeded rewrite of formatTrace output that both parsers accept. */
std::string
rewrite(const std::string &text, Prng &prng)
{
    const bool crlf = prng.below(2) != 0;
    std::string out;
    for (const std::string &line : splitLines(text)) {
        if (prng.below(6) == 0) {
            const char *extras[] = {"", "  ", "\t", "\r", "# comment",
                                    "  # indented comment", "\t#",
                                    " \t\r"};
            out += extras[prng.below(8)];
            out += crlf ? "\r\n" : "\n";
        }
        if (line.empty() || line[0] == '#') {
            out += line + (crlf ? "\r\n" : "\n");
            continue;
        }
        std::vector<std::string> fields = splitFields(line);
        if (prng.below(2) != 0)
            fields[0] = respellNumber(fields[0], prng);
        if (fields.size() == 4 && prng.below(2) != 0)
            fields[3] = respellNumber(fields[3], prng);
        if (prng.below(4) == 0)
            fields[2] = std::string(1 + prng.below(2), '0') + fields[2];
        out += blanks(prng, " \t\v\f", 3);
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i > 0) {
                std::string sep = blanks(prng, " \t\v\f", 2);
                out += sep.empty() ? " " : sep;
            }
            out += fields[i];
        }
        out += blanks(prng, " \t\v\f\r", 3);
        out += crlf ? "\r\n" : "\n";
    }
    if (prng.below(3) == 0) {
        while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
            out.pop_back();
    }
    return out;
}

TEST(TraceParse, FormattedTracesMatchTheReference)
{
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const std::string text =
            serve::formatTrace(serve::syntheticTrace(seededSpec(seed)));
        expectBothAgree(text, "seed " + std::to_string(seed));
    }
}

TEST(TraceParse, RewrittenTracesMatchTheReference)
{
    Prng prng(0x7ace);
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const std::string text =
            serve::formatTrace(serve::syntheticTrace(seededSpec(seed)));
        for (int variant = 0; variant < 4; ++variant) {
            const std::string rewritten = rewrite(text, prng);
            expectBothAgree(rewritten, "seed " + std::to_string(seed) +
                                           " variant " +
                                           std::to_string(variant));
            // The rewrite is a respelling: same requests as the
            // original text.
            expectSameRequests(serve::parseTrace(text),
                               serve::parseTrace(rewritten),
                               "respelled seed " + std::to_string(seed));
        }
    }
}

TEST(TraceParse, HandWrittenSpellingsMatchTheReference)
{
    expectBothAgree("", "empty");
    expectBothAgree("\n\n", "blank lines");
    expectBothAgree("# c\r\n5e+3 a 1\r\n", "crlf exponent");
    expectBothAgree(".5 a 01 0007.25", "point form, no final newline");
    expectBothAgree("\v1\fa\t2\v \r\n", "vertical tab and form feed");
    expectBothAgree("-0 a 1\n0 b 1 -0.0\n", "negative zero");
    expectBothAgree("1e-310 a 1 4.9e-324\n", "subnormals");
    expectBothAgree("0e-400 a 1\n", "zero with a tiny exponent");
    expectBothAgree("1.7976931348623157e308 a 4294967295\n", "extremes");
    expectBothAgree(std::string("1 a\0b 1\n", 8), "NUL inside a name");
}

// ------------------------------------------- where the grammars differ

/** How a forked parser run ended. */
struct Outcome
{
    bool accepted = false;
    /** The fatal message without the " (source.cc:line)" suffix. */
    std::string diagnostic;
};

/** Run @p parse on @p text in a child process (it may exit fatally). */
template <typename Parse>
Outcome
runIsolated(Parse parse, const std::string &text)
{
    int fds[2];
    if (pipe(fds) != 0) {
        ADD_FAILURE() << "pipe failed";
        return {};
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
        dup2(fds[1], 2);
        close(fds[0]);
        parse(text, std::string("fuzz.trace"));
        _exit(0);
    }
    close(fds[1]);
    std::string err;
    char buf[512];
    for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;)
        err.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    Outcome out;
    out.accepted = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const std::size_t suffix = err.rfind(" (");
    out.diagnostic = err.substr(0, suffix);
    return out;
}

Outcome
runNew(const std::string &text)
{
    return runIsolated(
        [](const std::string &t, const std::string &source) {
            serve::parseTrace(t, source);
        },
        text);
}

Outcome
runReference(const std::string &text)
{
    return runIsolated(
        [](const std::string &t, const std::string &source) {
            serve::referenceParseTrace(t, source);
        },
        text);
}

/**
 * The documented forms the reference (strtod) accepts and parseTrace
 * (from_chars) rejects: a leading '+', a hex float, a value that
 * underflows to 0, and an embedded NUL byte (strtod stops there).
 * Returns true when any whitespace-separated token of @p text has
 * one of them.
 */
bool
rejectedForm(const std::string &text)
{
    std::string token;
    const auto check = [](const std::string &t) {
        if (t.empty())
            return false;
        if (t[0] == '+' || t.find('\0') != std::string::npos)
            return true;
        if (t.find_first_of("xX") != std::string::npos)
            return true;
        errno = 0;
        const double v = std::strtod(t.c_str(), nullptr);
        return v == 0.0 && errno == ERANGE;
    };
    for (char c : text) {
        if (c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
            c == '\f' || c == '\r') {
            if (check(token))
                return true;
            token.clear();
        } else {
            token += c;
        }
    }
    return check(token);
}

TEST(TraceParse, DocumentedFormsAreRejectedOnlyByTheNewParser)
{
    const std::string cases[] = {
        "+5 a 1\n",
        "5 a +2\n",
        "5 a 1 +7\n",
        "0x1p3 a 1\n",
        "5 a 1 0X10\n",
        "1e-400 a 1\n",
        "5 a 1 2.4e-324\n",
        std::string("5\0x a 1\n", 8),
        std::string("5 a 2\0\n", 7),
    };
    for (const std::string &text : cases) {
        EXPECT_TRUE(rejectedForm(text)) << text;
        EXPECT_TRUE(runReference(text).accepted) << text;
        const Outcome got = runNew(text);
        EXPECT_FALSE(got.accepted) << text;
        EXPECT_NE(got.diagnostic.find("fuzz.trace:1: "), std::string::npos)
            << got.diagnostic;
    }
}

TEST(TraceParse, BothParsersReportTheSameDiagnostics)
{
    const char *cases[] = {
        "12.0 netA\n",
        "5.0 netA 1\n1.0 netA 1\n",
        "5.0 netA 0\n",
        "5.0 netA -1\n",
        "5.0 netA 99999999999\n",
        "5.0 netA 1 garbage\n",
        "5.0 netA 1 9.0 extra\n",
        "12abc netA 1\n",
        "1.0 netA 2x\n",
        "-1 netA 1\n",
        "inf netA 1\n",
        "1 netA 1 nan\n",
        "1e400 netA 1\n",
        "\v# not a comment\n",
        "1 a 1\n\f\n",
        "# ok\n1 a 1\r\n2 b\r\n",
    };
    for (const char *text : cases) {
        const Outcome want = runReference(text);
        const Outcome got = runNew(text);
        EXPECT_FALSE(want.accepted) << text;
        EXPECT_FALSE(got.accepted) << text;
        EXPECT_EQ(want.diagnostic, got.diagnostic) << text;
        EXPECT_NE(got.diagnostic.find("fuzz.trace:"), std::string::npos)
            << got.diagnostic;
    }
}

TEST(TraceParse, MutationFuzzAgreesOutsideTheDocumentedForms)
{
    // Byte-level mutations of small valid traces. Unless the input
    // holds a documented rejected form, both parsers must accept with
    // the same requests or reject with the same diagnostic.
    Prng prng(0xf022);
    const char alphabet[] = "+-.eE0159xX \t\v\f\r\n#a\0";
    std::size_t agreedAccept = 0, agreedReject = 0, documented = 0;
    for (int round = 0; round < 250; ++round) {
        TraceSpec spec = seededSpec(1000 + round);
        spec.requests = 3 + prng.below(4);
        std::string text = serve::formatTrace(serve::syntheticTrace(spec));
        for (std::size_t m = 0, n = 1 + prng.below(3); m < n; ++m) {
            const std::size_t at = prng.below(text.size() + 1);
            const char c = alphabet[prng.below(sizeof(alphabet) - 1)];
            switch (prng.below(3)) {
              case 0:
                text.insert(at, 1, c);
                break;
              case 1:
                if (at < text.size())
                    text.erase(at, 1);
                break;
              default:
                if (at < text.size())
                    text[at] = c;
            }
        }
        const Outcome want = runReference(text);
        const Outcome got = runNew(text);
        ASSERT_FALSE(got.accepted && !want.accepted)
            << "new parser accepts what the reference rejects: " << text;
        if (want.accepted && got.accepted) {
            expectBothAgree(text, "round " + std::to_string(round));
            ++agreedAccept;
        } else if (rejectedForm(text)) {
            // A documented form can also move the first error (a
            // NUL-truncated time that later reads as out of order).
            ++documented;
        } else if (want.accepted) {
            ADD_FAILURE() << "undocumented rejection: " << got.diagnostic
                          << "\n" << text;
        } else {
            EXPECT_EQ(want.diagnostic, got.diagnostic) << text;
            ++agreedReject;
        }
    }
    EXPECT_GT(agreedAccept, 20u);
    EXPECT_GT(agreedReject, 20u);
    EXPECT_GT(documented, 0u);
}

} // namespace
} // namespace bitfusion
