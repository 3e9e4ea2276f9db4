/**
 * @file
 * Fixed-width text table printer used by the bench binaries to emit the
 * same rows/series the paper's tables and figures report.
 */

#ifndef BERTI_HARNESS_TABLE_HH
#define BERTI_HARNESS_TABLE_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace berti
{

class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    void addRow(std::vector<std::string> cells);

    /** Format a double with the given precision. */
    static std::string num(double value, int precision = 3);

    /** Format as a percentage ("12.3%"). */
    static std::string pct(double fraction, int precision = 1);

    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

} // namespace berti

#endif // BERTI_HARNESS_TABLE_HH
