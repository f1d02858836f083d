/**
 * @file
 * Plain-text table formatting for benchmark and report output.
 *
 * Every figure reporter regenerates one of the paper's tables or
 * figures; this class renders the rows/series in an aligned,
 * copy-pasteable form.
 */

#ifndef BITFUSION_COMMON_TABLE_H
#define BITFUSION_COMMON_TABLE_H

#include <string>
#include <vector>

namespace bitfusion {

/** Aligned text table with a header row. */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Render the table, header first, columns space-aligned. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

    /** Format helper: fixed-point decimal with @p digits fractional. */
    static std::string num(double v, int digits = 2);

    /** Format helper: value with a trailing multiplication sign. */
    static std::string times(double v, int digits = 2);

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Geometric mean of a list of strictly positive values. */
double geomean(const std::vector<double> &values);

} // namespace bitfusion

#endif // BITFUSION_COMMON_TABLE_H
