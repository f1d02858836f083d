/**
 * @file
 * Unit tests for the common substrate: bit utilities, the
 * deterministic PRNG, the table/geomean helpers, the CLI flag-number
 * parsers, the JSON writer, and the checked output-file writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "src/common/bitutils.h"
#include "src/common/cli.h"
#include "src/common/json.h"
#include "src/common/output.h"
#include "src/common/prng.h"
#include "src/common/table.h"

namespace bitfusion {
namespace {

TEST(BitUtils, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
    EXPECT_EQ(divCeil(1ULL << 40, 3), ((1ULL << 40) + 2) / 3);
}

TEST(BitUtils, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(1), 1u);
    EXPECT_EQ(lowMask(8), 0xffu);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(BitUtils, SignExtend)
{
    EXPECT_EQ(signExtend(0x3, 2), -1);
    EXPECT_EQ(signExtend(0x2, 2), -2);
    EXPECT_EQ(signExtend(0x1, 2), 1);
    EXPECT_EQ(signExtend(0x80, 8), -128);
    EXPECT_EQ(signExtend(0x7f, 8), 127);
    EXPECT_EQ(signExtend(0xffff, 16), -1);
}

TEST(BitUtils, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(16));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(log2Exact(1), 0u);
    EXPECT_EQ(log2Exact(16), 4u);
}

TEST(BitUtils, BitBrickLanes)
{
    EXPECT_EQ(bitBrickLanes(1), 1u);
    EXPECT_EQ(bitBrickLanes(2), 1u);
    EXPECT_EQ(bitBrickLanes(4), 2u);
    EXPECT_EQ(bitBrickLanes(8), 4u);
    EXPECT_EQ(bitBrickLanes(16), 8u);
}

TEST(BitUtils, SignedRanges)
{
    EXPECT_EQ(signedMin(2), -2);
    EXPECT_EQ(signedMax(2), 1);
    EXPECT_EQ(signedMin(8), -128);
    EXPECT_EQ(signedMax(8), 127);
    EXPECT_EQ(unsignedMax(8), 255);
}

TEST(BitUtils, Clamping)
{
    EXPECT_EQ(clampSigned(200, 8), 127);
    EXPECT_EQ(clampSigned(-200, 8), -128);
    EXPECT_EQ(clampSigned(5, 8), 5);
    EXPECT_EQ(clampUnsigned(-3, 8), 0);
    EXPECT_EQ(clampUnsigned(300, 8), 255);
    EXPECT_EQ(clampUnsigned(42, 8), 42);
}

TEST(Prng, Deterministic)
{
    Prng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiffer)
{
    Prng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(Prng, RangesRespected)
{
    Prng p(7);
    for (int i = 0; i < 1000; ++i) {
        const auto u = p.nextUnsigned(4);
        EXPECT_GE(u, 0);
        EXPECT_LE(u, 15);
        const auto s = p.nextSigned(4);
        EXPECT_GE(s, -8);
        EXPECT_LE(s, 7);
        const double d = p.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
        EXPECT_LT(p.below(10), 10u);
    }
}

TEST(Prng, CoversFullRange)
{
    Prng p(11);
    bool seen[16] = {};
    for (int i = 0; i < 1000; ++i)
        seen[p.nextUnsigned(4)] = true;
    for (int v = 0; v < 16; ++v)
        EXPECT_TRUE(seen[v]) << "value " << v << " never generated";
}

TEST(Table, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 4.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, RendersAlignedRows)
{
    TextTable t({"A", "LongHeader"});
    t.addRow({"x", "1"});
    t.addRow({"yyyy", "2"});
    const std::string s = t.render();
    EXPECT_NE(s.find("A"), std::string::npos);
    EXPECT_NE(s.find("LongHeader"), std::string::npos);
    EXPECT_NE(s.find("yyyy"), std::string::npos);
    // Header, separator, two rows.
    EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::times(2.5, 1), "2.5x");
}

TEST(TableDeath, RowWidthMismatchPanics)
{
    TextTable t({"A", "B"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

double
doubleFlag(const char *value)
{
    const char *argv[] = {"prog", "--gap", value};
    int i = 1;
    return cli::doubleArg(3, const_cast<char **>(argv), i, "--gap");
}

std::uint64_t
uintFlag(const char *value, std::uint64_t max = UINT64_MAX)
{
    const char *argv[] = {"prog", "--n", value};
    int i = 1;
    return cli::uintArg(3, const_cast<char **>(argv), i, "--n", max);
}

TEST(Cli, FlagNumbersAreDecimal)
{
    EXPECT_DOUBLE_EQ(doubleFlag("16"), 16.0);
    EXPECT_DOUBLE_EQ(doubleFlag("1.5e3"), 1500.0);
    EXPECT_DOUBLE_EQ(doubleFlag(".5"), 0.5);
    EXPECT_EQ(uintFlag("007"), 7u);
    EXPECT_EQ(uintFlag("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(uintFlag("4294967295", UINT32_MAX), UINT32_MAX);
}

TEST(CliDeath, RejectsWhatTheTraceGrammarRejects)
{
    for (const char *bad : {"0x10", " +16", "+16", "-0", "-1", "16 ",
                            "inf", "nan", "1e999", ""}) {
        EXPECT_EXIT(doubleFlag(bad), ::testing::ExitedWithCode(2),
                    "--gap needs a non-negative finite number")
            << bad;
    }
    for (const char *bad : {"+5", " 5", "-1", "5x", "0x10", "",
                            "18446744073709551616"}) {
        EXPECT_EXIT(uintFlag(bad), ::testing::ExitedWithCode(2),
                    "--n needs an integer")
            << bad;
    }
    EXPECT_EXIT(uintFlag("4294967297", UINT32_MAX),
                ::testing::ExitedWithCode(2), "--n needs an integer");
}

TEST(JsonWriter, PrettyLayoutMatchesTheDocumentedShape)
{
    json::Writer w(2);
    w.beginObject();
    w.key("a").value(1);
    w.key("empty_array").beginArray().endArray();
    w.key("empty_object").beginObject().endObject();
    w.key("list").beginArray();
    w.value(true).value("x");
    w.beginObject().key("k").null().endObject();
    w.endArray();
    w.endObject();
    EXPECT_EQ(w.take(), "{\n"
                        "  \"a\": 1,\n"
                        "  \"empty_array\": [],\n"
                        "  \"empty_object\": {},\n"
                        "  \"list\": [\n"
                        "    true,\n"
                        "    \"x\",\n"
                        "    {\n"
                        "      \"k\": null\n"
                        "    }\n"
                        "  ]\n"
                        "}");

    json::Writer compact;
    compact.beginArray().value(-3).beginArray().endArray().endArray();
    EXPECT_EQ(compact.take(), "[-3,[]]");
}

TEST(JsonWriter, EscapesStringsAndKeys)
{
    json::Writer w;
    w.beginObject();
    w.key("q\"k").value(std::string("a\\b\n\r\t\x01\x1f\x7f\0z", 11));
    w.endObject();
    EXPECT_EQ(w.take(),
              "{\"q\\\"k\":\"a\\\\b\\n\\r\\t\\u0001\\u001f\x7f\\u0000z\"}");
}

TEST(JsonWriter, NumbersMatchPrintf)
{
    // Doubles print exactly as %.12g, integers as %lld / %llu, and
    // non-finite doubles as null.
    const auto printed = [](auto v) {
        json::Writer w;
        w.value(v);
        return w.take();
    };
    Prng prng(12);
    for (int i = 0; i < 20000; ++i) {
        double x = 0.0;
        const std::uint64_t bits = prng.next();
        std::memcpy(&x, &bits, sizeof(x));
        if (i % 2 == 0)
            x = prng.nextDouble() * std::pow(10.0, prng.below(40) - 20.0);
        if (!std::isfinite(x))
            continue;
        char want[40];
        std::snprintf(want, sizeof(want), "%.12g", x);
        ASSERT_EQ(printed(x), want) << i;
    }
    EXPECT_EQ(printed(-0.0), "-0");
    EXPECT_EQ(printed(1e21), "1e+21");
    EXPECT_EQ(printed(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(printed(std::nan("")), "null");
    EXPECT_EQ(printed(std::numeric_limits<std::int64_t>::min()),
              "-9223372036854775808");
    EXPECT_EQ(printed(std::numeric_limits<std::uint64_t>::max()),
              "18446744073709551615");
    EXPECT_EQ(printed(static_cast<unsigned char>(200)), "200");
    EXPECT_EQ(printed(false), "false");
}

/** A fresh directory for one output test. */
std::filesystem::path
scratchDir(const char *name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(WriteOutput, ShorterRewriteLeavesNoStaleTail)
{
    const std::string path = (scratchDir("bf_output_rewrite") / "o").string();
    writeOutput(path, "a longer first output\n");
    writeOutput(path, "short\n");
    EXPECT_EQ(slurp(path), "short\n");
    writeOutput(path, "");
    EXPECT_EQ(slurp(path), "");
}

TEST(WriteOutput, SymlinkUpdatesItsTarget)
{
    const std::filesystem::path dir = scratchDir("bf_output_symlink");
    writeOutput((dir / "target").string(), "old bytes\n");
    std::filesystem::create_symlink("target", dir / "link");
    writeOutput((dir / "link").string(), "new\n");
    EXPECT_TRUE(std::filesystem::is_symlink(dir / "link"));
    EXPECT_EQ(slurp(dir / "target"), "new\n");
}

TEST(WriteOutputDeath, UnwritablePathsExitOneNamingThePath)
{
    const std::string dir = scratchDir("bf_output_dir").string();
    EXPECT_EXIT(writeOutput(dir, "x"), ::testing::ExitedWithCode(1),
                "cannot write '" + dir + "': ");
    EXPECT_EXIT(writeOutput(dir + "/missing/o", "x"),
                ::testing::ExitedWithCode(1), "/missing/o': ");
    // /dev/full accepts the open and fails the buffered write at close.
    if (std::filesystem::exists("/dev/full")) {
        EXPECT_EXIT(writeOutput("/dev/full", "x"),
                    ::testing::ExitedWithCode(1),
                    "cannot write '/dev/full': ");
    }
}

} // namespace
} // namespace bitfusion
