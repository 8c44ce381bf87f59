// Geometry helpers for stencil dependency footprints, windows and halos.
//
// A `Footprint` records how far a stencil reaches in each direction from the
// element it computes; composing footprints across iterations (Minkowski sum)
// gives the input halo a cone of a given depth needs — the quantity that
// drives on-chip memory in the paper's architecture template (Sec. 3.1).
#pragma once

#include <string>

namespace islhls {

// Per-direction dependency extents, all non-negative.
// A 3x3 kernel has {left:1, right:1, up:1, down:1}; Chambolle's divergence
// term reads p1[x-1] giving an asymmetric footprint.
struct Footprint {
    int left = 0;
    int right = 0;
    int up = 0;
    int down = 0;

    // Horizontal / vertical span in elements added around a point.
    int width_growth() const { return left + right; }
    int height_growth() const { return up + down; }

    bool operator==(const Footprint&) const = default;
};

// Footprint of applying `a` then `b` (dependency composition = Minkowski sum).
Footprint compose(const Footprint& a, const Footprint& b);

// Footprint of `iterations` repeated applications of `f`.
Footprint repeat(const Footprint& f, int iterations);

std::string to_string(const Footprint& f);

// An axis-aligned window of elements: x in [x0, x0+width), y likewise.
struct Window {
    int x0 = 0;
    int y0 = 0;
    int width = 0;
    int height = 0;

    long long element_count() const {
        return static_cast<long long>(width) * height;
    }
    bool operator==(const Window&) const = default;
};

// Input window needed to produce `output` through a stencil with footprint
// `f` applied `depth` times: the output window expanded by the repeated
// footprint.
Window input_window_for(const Window& output, const Footprint& f, int depth);

std::string to_string(const Window& w);

}  // namespace islhls
