#include "support/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
    check_internal(!header_.empty(), "Table requires a non-empty header");
}

void Table::add_row(std::vector<std::string> row) {
    if (row.size() != header_.size()) {
        throw Internal_error(cat("Table row has ", row.size(), " cells, expected ",
                                 header_.size()));
    }
    rows_.push_back(std::move(row));
}

std::string Table::to_text() const {
    std::vector<std::size_t> widths(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
    for (const auto& row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            widths[c] = std::max(widths[c], row[c].size());
        }
    }
    std::ostringstream os;
    auto emit_row = [&](const std::vector<std::string>& row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c != 0) os << "  ";
            os << pad_left(row[c], widths[c]);
        }
        os << '\n';
    };
    emit_row(header_);
    std::size_t rule = 0;
    for (std::size_t c = 0; c < widths.size(); ++c) rule += widths[c] + (c ? 2 : 0);
    os << std::string(rule, '-') << '\n';
    for (const auto& row : rows_) emit_row(row);
    return os.str();
}

std::ostream& operator<<(std::ostream& os, const Table& t) { return os << t.to_text(); }

namespace detail {
std::string cell_to_string(const std::string& s) { return s; }
std::string cell_to_string(const char* s) { return s; }
std::string cell_to_string(double v) {
    std::ostringstream os;
    os << v;
    return os.str();
}
std::string cell_to_string(float v) { return cell_to_string(static_cast<double>(v)); }
std::string cell_to_string(int v) { return std::to_string(v); }
std::string cell_to_string(long v) { return std::to_string(v); }
std::string cell_to_string(long long v) { return std::to_string(v); }
std::string cell_to_string(unsigned v) { return std::to_string(v); }
std::string cell_to_string(unsigned long v) { return std::to_string(v); }
std::string cell_to_string(unsigned long long v) { return std::to_string(v); }
}  // namespace detail

}  // namespace islhls
