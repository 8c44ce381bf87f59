#include "grid/tile.hpp"

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

Footprint compose(const Footprint& a, const Footprint& b) {
    return Footprint{a.left + b.left, a.right + b.right, a.up + b.up, a.down + b.down};
}

Footprint repeat(const Footprint& f, int iterations) {
    check_internal(iterations >= 0, "repeat() requires iterations >= 0");
    return Footprint{f.left * iterations, f.right * iterations, f.up * iterations,
                     f.down * iterations};
}

std::string to_string(const Footprint& f) {
    return cat("{l:", f.left, " r:", f.right, " u:", f.up, " d:", f.down, "}");
}

Window input_window_for(const Window& output, const Footprint& f, int depth) {
    const Footprint total = repeat(f, depth);
    return Window{output.x0 - total.left, output.y0 - total.up,
                  output.width + total.width_growth(),
                  output.height + total.height_growth()};
}

std::string to_string(const Window& w) {
    return cat("[", w.x0, ",", w.y0, " ", w.width, "x", w.height, "]");
}

}  // namespace islhls
