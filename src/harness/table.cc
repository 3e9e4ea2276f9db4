#include "harness/table.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace berti
{

TextTable::TextTable(std::vector<std::string> hdrs)
    : headers(std::move(hdrs))
{}

void
TextTable::addRow(std::vector<std::string> cells)
{
    cells.resize(headers.size());
    rows.push_back(std::move(cells));
}

std::string
TextTable::num(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
TextTable::pct(double fraction, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << 100.0 * fraction
       << "%";
    return os.str();
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> width(headers.size());
    for (std::size_t i = 0; i < headers.size(); ++i)
        width[i] = headers[i].size();
    for (const auto &row : rows) {
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    }

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(width[i]) + 2)
               << cells[i];
        }
        os << '\n';
    };
    emit(headers);
    std::vector<std::string> rule;
    for (std::size_t w : width)
        rule.push_back(std::string(w, '-'));
    emit(rule);
    for (const auto &row : rows)
        emit(row);
}

} // namespace berti
