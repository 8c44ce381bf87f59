// Plain-text table rendering for bench/report output.
//
// The bench binaries regenerate the paper's figures as textual tables; this
// helper keeps their formatting uniform (aligned columns).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace islhls {

// A rectangular table of strings with a header row.
class Table {
public:
    explicit Table(std::vector<std::string> header);

    // Appends one row; must have exactly as many cells as the header.
    void add_row(std::vector<std::string> row);

    // Convenience: formats arithmetic cells with cat()-style streaming.
    template <typename... Cells>
    void add(const Cells&... cells);

    // Renders with space-padded aligned columns and a separator rule.
    std::string to_text() const;

    // Writes to_text() to the stream.
    friend std::ostream& operator<<(std::ostream& os, const Table& t);

private:
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

namespace detail {
std::string cell_to_string(const std::string& s);
std::string cell_to_string(const char* s);
std::string cell_to_string(double v);
std::string cell_to_string(float v);
std::string cell_to_string(int v);
std::string cell_to_string(long v);
std::string cell_to_string(long long v);
std::string cell_to_string(unsigned v);
std::string cell_to_string(unsigned long v);
std::string cell_to_string(unsigned long long v);
}  // namespace detail

template <typename... Cells>
void Table::add(const Cells&... cells) {
    add_row({detail::cell_to_string(cells)...});
}

}  // namespace islhls
