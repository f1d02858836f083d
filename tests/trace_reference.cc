#include "tests/trace_reference.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "src/common/logging.h"

namespace bitfusion {
namespace serve {

namespace {

/**
 * Strict full-token nonnegative double: "12abc" is a fatal error,
 * not 12 (the old stream extraction would read the 12 and leave the
 * rest to misalign every following field).
 */
double
parseTraceNumber(const std::string &token, const std::string &source,
                 std::size_t lineNo, const char *what)
{
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' ||
        !std::isfinite(value) || value < 0.0) {
        BF_FATAL(source, ":", lineNo, ": malformed ", what, " '",
                 token, "' (want a nonnegative number)");
    }
    return value;
}

} // namespace

std::vector<InferenceRequest>
referenceParseTrace(const std::string &text, const std::string &source)
{
    std::vector<InferenceRequest> trace;
    std::istringstream in(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        const auto start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#')
            continue;

        // Tokenize the whole line up front: a malformed or truncated
        // field is diagnosed with its file:line, never silently
        // absorbed into a neighboring column.
        std::vector<std::string> fields;
        std::istringstream split(line);
        std::string token;
        while (split >> token)
            fields.push_back(token);
        if (fields.size() < 3) {
            BF_FATAL(source, ":", lineNo,
                     ": malformed trace line '", line,
                     "' (want: arrival_us network samples "
                     "[deadline_us])");
        }
        if (fields.size() > 4) {
            BF_FATAL(source, ":", lineNo, ": trailing '", fields[4],
                     "' after the deadline column");
        }

        InferenceRequest req;
        req.id = trace.size();
        req.arrivalUs =
            parseTraceNumber(fields[0], source, lineNo,
                             "arrival time");
        req.network = fields[1];
        char *end = nullptr;
        const long long samples =
            std::strtoll(fields[2].c_str(), &end, 10);
        if (end == fields[2].c_str() || *end != '\0' ||
            samples <= 0 ||
            samples > std::numeric_limits<unsigned>::max()) {
            BF_FATAL(source, ":", lineNo, ": bad sample count '",
                     fields[2], "'");
        }
        req.samples = static_cast<unsigned>(samples);
        if (fields.size() == 4) {
            req.deadlineUs = parseTraceNumber(fields[3], source,
                                              lineNo, "deadline");
        }
        if (!trace.empty() && req.arrivalUs < trace.back().arrivalUs)
            BF_FATAL(source, ":", lineNo,
                     ": is out of order (arrival ", req.arrivalUs,
                     " before ", trace.back().arrivalUs, ")");
        trace.push_back(std::move(req));
    }
    return trace;
}

} // namespace serve
} // namespace bitfusion
