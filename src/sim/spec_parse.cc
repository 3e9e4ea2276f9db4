#include "sim/spec_parse.hh"

#include <limits>

#include "sim/options.hh"
#include "verify/sim_error.hh"

namespace berti::sim
{

std::vector<std::string>
splitTopLevel(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : text) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == sep && depth == 0) {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
            continue;
        }
        cur.push_back(c);
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

std::size_t
findTopLevel(const std::string &text, char sep)
{
    int depth = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '(')
            ++depth;
        else if (text[i] == ')')
            --depth;
        else if (text[i] == sep && depth == 0)
            return i;
    }
    return std::string::npos;
}

std::vector<SpecOption>
parseSpecOptions(const std::string &text, const std::string &component)
{
    std::vector<SpecOption> out;
    for (const std::string &clause : splitTopLevel(text, ';')) {
        std::size_t eq = findTopLevel(clause, '=');
        if (eq == std::string::npos || eq == 0) {
            throw verify::SimError(
                verify::ErrorKind::Config, component,
                "malformed option \"" + clause +
                    "\" (expected key=value)");
        }
        out.push_back({clause.substr(0, eq), clause.substr(eq + 1)});
    }
    return out;
}

unsigned
parseSpecUnsigned(const std::string &key, const std::string &value,
                  const std::string &component)
{
    try {
        return static_cast<unsigned>(parseInteger(
            key, value, 1, std::numeric_limits<unsigned>::max()));
    } catch (const verify::SimError &e) {
        throw verify::SimError(verify::ErrorKind::Config, component,
                               e.reason());
    }
}

} // namespace berti::sim
