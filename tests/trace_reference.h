/**
 * @file
 * The original istringstream/strtod trace-file parser, kept as the
 * slow oracle that tests/test_trace_parse.cc differentially checks
 * serve::parseTrace against.
 */

#ifndef BITFUSION_TESTS_TRACE_REFERENCE_H
#define BITFUSION_TESTS_TRACE_REFERENCE_H

#include <string>
#include <vector>

#include "src/serve/trace.h"

namespace bitfusion {
namespace serve {

/**
 * Parse the trace file format with getline, a token vector per line
 * and strtod/strtoll; same contract and diagnostics as parseTrace,
 * but strtod's number grammar (a leading '+', hex floats, and values
 * that underflow are accepted, and a number field ends at an embedded
 * NUL byte).
 */
std::vector<InferenceRequest>
referenceParseTrace(const std::string &text,
                    const std::string &source = "<trace>");

} // namespace serve
} // namespace bitfusion

#endif // BITFUSION_TESTS_TRACE_REFERENCE_H
