#include "kernels/kernels.hpp"

#include <cmath>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

namespace {

// Shorthand for single-field kernels: build the initial set with field "u".
Frame_set single_field_initial(const Frame& content) {
    Frame_set fs(content.width(), content.height());
    fs.add_field("u", content);
    return fs;
}

// Applies `update(x, y)` to every element of a new frame named `u`.
template <typename Update>
Frame_set map_single_field(const Frame_set& in, Update&& update) {
    Frame_set out(in.width(), in.height());
    Frame& u = out.add_field("u");
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) u.at(x, y) = update(x, y);
    }
    return out;
}

// --- Iterative Gaussian Filter (paper case study 1) ---------------------------

const char* igf_source = R"(
// Iterative Gaussian filter: repeated 3x3 binomial convolution.
// Iterating n times approximates a single Gaussian blur of larger sigma
// (the paper's IGF case study, after Jamro et al. [13]).
void igf_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            u_out[y][x] = (u[y-1][x-1] + 2.0f*u[y-1][x] + u[y-1][x+1]
                         + 2.0f*u[y][x-1] + 4.0f*u[y][x] + 2.0f*u[y][x+1]
                         + u[y+1][x-1] + 2.0f*u[y+1][x] + u[y+1][x+1]) * 0.0625f;
        }
    }
}
)";

Frame_set igf_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        return (u.sample(x - 1, y - 1, b) + 2.0 * u.sample(x, y - 1, b) +
                u.sample(x + 1, y - 1, b) + 2.0 * u.sample(x - 1, y, b) +
                4.0 * u.sample(x, y, b) + 2.0 * u.sample(x + 1, y, b) +
                u.sample(x - 1, y + 1, b) + 2.0 * u.sample(x, y + 1, b) +
                u.sample(x + 1, y + 1, b)) *
               0.0625;
    });
}

// --- Chambolle total-variation minimization (paper case study 2) -----------------

const char* chambolle_source = R"(
// One fixed-point iteration of Chambolle's dual algorithm for total
// variation minimization (Chambolle 2004, the paper's second case study).
// The dual field p = (p1, p2) evolves; g is the (constant) input image.
//   u    = div p - g / lambda          (lambda = 8)
//   p'   = (p + tau * grad u) / (1 + tau * |grad u|)   (tau = 1/8)
void chambolle_step(float p1_out[H][W], float p2_out[H][W],
                    const float p1[H][W], const float p2[H][W],
                    const float g[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float u00 = p1[y][x] - p1[y][x-1] + p2[y][x] - p2[y-1][x]
                      - g[y][x] * 0.125f;
            float u10 = p1[y][x+1] - p1[y][x] + p2[y][x+1] - p2[y-1][x+1]
                      - g[y][x+1] * 0.125f;
            float u01 = p1[y+1][x] - p1[y+1][x-1] + p2[y+1][x] - p2[y][x]
                      - g[y+1][x] * 0.125f;
            float gx = u10 - u00;
            float gy = u01 - u00;
            float den = 1.0f + 0.125f * sqrtf(gx*gx + gy*gy);
            p1_out[y][x] = (p1[y][x] + 0.125f * gx) / den;
            p2_out[y][x] = (p2[y][x] + 0.125f * gy) / den;
        }
    }
}
)";

Frame_set chambolle_initial(const Frame& content) {
    Frame_set fs(content.width(), content.height());
    fs.add_field("p1");
    fs.add_field("p2");
    fs.add_field("g", content);
    return fs;
}

Frame_set chambolle_native(const Frame_set& in, Boundary b) {
    const Frame& p1 = in.field("p1");
    const Frame& p2 = in.field("p2");
    const Frame& g = in.field("g");
    Frame_set out(in.width(), in.height());
    Frame& p1n = out.add_field("p1");
    Frame& p2n = out.add_field("p2");
    auto u_at = [&](int x, int y) {
        return p1.sample(x, y, b) - p1.sample(x - 1, y, b) + p2.sample(x, y, b) -
               p2.sample(x, y - 1, b) - g.sample(x, y, b) * 0.125;
    };
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            const double u00 = u_at(x, y);
            const double u10 = u_at(x + 1, y);
            const double u01 = u_at(x, y + 1);
            const double gx = u10 - u00;
            const double gy = u01 - u00;
            const double den = 1.0 + 0.125 * std::sqrt(gx * gx + gy * gy);
            p1n.at(x, y) = (p1.sample(x, y, b) + 0.125 * gx) / den;
            p2n.at(x, y) = (p2.sample(x, y, b) + 0.125 * gy) / den;
        }
    }
    out.add_field("g", g);
    return out;
}

// --- Jacobi 5-point relaxation -------------------------------------------------

const char* jacobi_source = R"(
// Jacobi relaxation for the 2-D Laplace equation: each element becomes the
// average of its four neighbours (scientific-computing ISL, cf. the paper's
// reference to Jacobi iterative eigenvalue methods).
void jacobi_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            u_out[y][x] = 0.25f * (u[y-1][x] + u[y+1][x] + u[y][x-1] + u[y][x+1]);
        }
    }
}
)";

Frame_set jacobi_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        return 0.25 * (u.sample(x, y - 1, b) + u.sample(x, y + 1, b) +
                       u.sample(x - 1, y, b) + u.sample(x + 1, y, b));
    });
}

// --- Explicit heat diffusion -----------------------------------------------------

const char* heat_source = R"(
// Explicit Euler step of the 2-D heat equation, diffusion number 0.2
// (stable: < 0.25).
void heat_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            u_out[y][x] = u[y][x] + 0.2f * (u[y-1][x] + u[y+1][x] + u[y][x-1]
                                          + u[y][x+1] - 4.0f*u[y][x]);
        }
    }
}
)";

Frame_set heat_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        return u.sample(x, y, b) +
               0.2 * (u.sample(x, y - 1, b) + u.sample(x, y + 1, b) +
                      u.sample(x - 1, y, b) + u.sample(x + 1, y, b) -
                      4.0 * u.sample(x, y, b));
    });
}

// --- 3x3 mean (box) filter --------------------------------------------------------

const char* mean_source = R"(
// Iterated 3x3 box blur, written with an unrolled accumulation loop to
// exercise the frontend's inner-loop unrolling and local-array support.
void mean_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float acc = 0.0f;
            for (int ky = -1; ky <= 1; ky++) {
                for (int kx = -1; kx <= 1; kx++) {
                    acc += u[y+ky][x+kx];
                }
            }
            u_out[y][x] = acc / 9.0f;
        }
    }
}
)";

Frame_set mean_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        double acc = 0.0;
        for (int ky = -1; ky <= 1; ++ky) {
            for (int kx = -1; kx <= 1; ++kx) acc += u.sample(x + kx, y + ky, b);
        }
        return acc / 9.0;
    });
}

// --- Grayscale erosion --------------------------------------------------------------

const char* erosion_source = R"(
// Morphological erosion with a 3x3 structuring element (pure min network —
// no multipliers; exercises the comparator cost model).
void erosion_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float m = fminf(fminf(fminf(u[y-1][x-1], u[y-1][x]), fminf(u[y-1][x+1],
                      u[y][x-1])), fminf(fminf(u[y][x], u[y][x+1]),
                      fminf(u[y+1][x-1], fminf(u[y+1][x], u[y+1][x+1]))));
            u_out[y][x] = m;
        }
    }
}
)";

Frame_set erosion_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        const double m = std::fmin(
            std::fmin(std::fmin(u.sample(x - 1, y - 1, b), u.sample(x, y - 1, b)),
                      std::fmin(u.sample(x + 1, y - 1, b), u.sample(x - 1, y, b))),
            std::fmin(std::fmin(u.sample(x, y, b), u.sample(x + 1, y, b)),
                      std::fmin(u.sample(x - 1, y + 1, b),
                                std::fmin(u.sample(x, y + 1, b),
                                          u.sample(x + 1, y + 1, b)))));
        return m;
    });
}

// --- Perona-Malik anisotropic diffusion ----------------------------------------------

const char* perona_malik_source = R"(
// Perona-Malik edge-preserving diffusion with rational conductance
// w(d) = 1 / (1 + |d|/16); exercises full dividers and fabs.
void perona_malik_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float dn = u[y-1][x] - u[y][x];
            float ds = u[y+1][x] - u[y][x];
            float de = u[y][x+1] - u[y][x];
            float dw = u[y][x-1] - u[y][x];
            float wn = 1.0f / (1.0f + fabsf(dn) * 0.0625f);
            float ws = 1.0f / (1.0f + fabsf(ds) * 0.0625f);
            float we = 1.0f / (1.0f + fabsf(de) * 0.0625f);
            float ww = 1.0f / (1.0f + fabsf(dw) * 0.0625f);
            u_out[y][x] = u[y][x] + 0.125f * (wn*dn + ws*ds + we*de + ww*dw);
        }
    }
}
)";

Frame_set perona_malik_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        const double c = u.sample(x, y, b);
        const double dn = u.sample(x, y - 1, b) - c;
        const double ds = u.sample(x, y + 1, b) - c;
        const double de = u.sample(x + 1, y, b) - c;
        const double dw = u.sample(x - 1, y, b) - c;
        const double wn = 1.0 / (1.0 + std::fabs(dn) * 0.0625);
        const double ws = 1.0 / (1.0 + std::fabs(ds) * 0.0625);
        const double we = 1.0 / (1.0 + std::fabs(de) * 0.0625);
        const double ww = 1.0 / (1.0 + std::fabs(dw) * 0.0625);
        return c + 0.125 * (wn * dn + ws * ds + we * de + ww * dw);
    });
}

// --- Shock filter ----------------------------------------------------------------------

const char* shock_source = R"(
// Osher-Rudin shock filter: sharpens edges by advecting against the
// Laplacian sign. Exercises data-dependent ternaries (select hardware).
void shock_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float lap = u[y-1][x] + u[y+1][x] + u[y][x-1] + u[y][x+1]
                      - 4.0f*u[y][x];
            float gx = (u[y][x+1] - u[y][x-1]) * 0.5f;
            float gy = (u[y+1][x] - u[y-1][x]) * 0.5f;
            float mag = sqrtf(gx*gx + gy*gy);
            u_out[y][x] = lap > 0.0f ? u[y][x] - 0.1f*mag
                         : (lap < 0.0f ? u[y][x] + 0.1f*mag : u[y][x]);
        }
    }
}
)";

Frame_set shock_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        const double lap = u.sample(x, y - 1, b) + u.sample(x, y + 1, b) +
                           u.sample(x - 1, y, b) + u.sample(x + 1, y, b) -
                           4.0 * u.sample(x, y, b);
        const double gx = (u.sample(x + 1, y, b) - u.sample(x - 1, y, b)) * 0.5;
        const double gy = (u.sample(x, y + 1, b) - u.sample(x, y - 1, b)) * 0.5;
        const double mag = std::sqrt(gx * gx + gy * gy);
        const double c = u.sample(x, y, b);
        return lap > 0.0 ? c - 0.1 * mag : (lap < 0.0 ? c + 0.1 * mag : c);
    });
}

// --- Conway's Game of Life -----------------------------------------------------

const char* life_source = R"(
// Conway's Game of Life on a float grid (alive = value > 0.5). A pure
// boolean ISL: exercises comparisons, &&/|| lowering and select chains.
// Cells outside the frame are dead (zero boundary).
void life_step(float u_out[H][W], const float u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float n = 0.0f;
            for (int ky = -1; ky <= 1; ky++) {
                for (int kx = -1; kx <= 1; kx++) {
                    n += u[y+ky][x+kx] > 0.5f ? 1.0f : 0.0f;
                }
            }
            float self = u[y][x] > 0.5f ? 1.0f : 0.0f;
            n = n - self;
            u_out[y][x] = (n == 3.0f || (self > 0.5f && n == 2.0f)) ? 1.0f : 0.0f;
        }
    }
}
)";

Frame_set life_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        double n = 0.0;
        for (int ky = -1; ky <= 1; ++ky) {
            for (int kx = -1; kx <= 1; ++kx) {
                n += u.sample(x + kx, y + ky, b) > 0.5 ? 1.0 : 0.0;
            }
        }
        const double self = u.sample(x, y, b) > 0.5 ? 1.0 : 0.0;
        n = n - self;
        return (n == 3.0 || (self > 0.5 && n == 2.0)) ? 1.0 : 0.0;
    });
}

// --- HotSpot thermal simulation -------------------------------------------------

const char* hotspot_source = R"(
// HotSpot-style thermal relaxation: a temperature field conducts heat to
// its four neighbours, gains heat from a constant per-cell power map and
// leaks towards the 80-degree ambient. All rate constants are exact binary
// fractions so the double IR matches the native step bit for bit.
void hotspot_step(float t_out[H][W], const float t[H][W], const float p[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float conduct = 0.0625f * (t[y-1][x] + t[y+1][x] + t[y][x-1]
                                     + t[y][x+1] - 4.0f*t[y][x]);
            t_out[y][x] = t[y][x] + conduct + 0.25f*p[y][x]
                        + 0.03125f*(80.0f - t[y][x]);
        }
    }
}
)";

Frame_set hotspot_initial(const Frame& content) {
    Frame_set fs(content.width(), content.height());
    fs.add_field("t", content);
    Frame& p = fs.add_field("p");
    for (int y = 0; y < content.height(); ++y) {
        for (int x = 0; x < content.width(); ++x) {
            p.at(x, y) = content.at(x, y) * 0.00390625;  // power map from content
        }
    }
    return fs;
}

Frame_set hotspot_native(const Frame_set& in, Boundary b) {
    const Frame& t = in.field("t");
    const Frame& p = in.field("p");
    Frame_set out(in.width(), in.height());
    Frame& tn = out.add_field("t");
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            const double conduct =
                0.0625 * (t.sample(x, y - 1, b) + t.sample(x, y + 1, b) +
                          t.sample(x - 1, y, b) + t.sample(x + 1, y, b) -
                          4.0 * t.sample(x, y, b));
            tn.at(x, y) = t.sample(x, y, b) + conduct + 0.25 * p.sample(x, y, b) +
                          0.03125 * (80.0 - t.sample(x, y, b));
        }
    }
    out.add_field("p", p);
    return out;
}

// --- FDTD electromagnetic update -------------------------------------------------

const char* fdtd_source = R"(
// 2-D FDTD (TMz) leapfrog step: the electric field ez and the two magnetic
// fields hx/hy advance together, each update reading the others — a coupled
// three-state-field ISL with asymmetric one-sided differences.
void fdtd_step(float ez_out[H][W], float hx_out[H][W], float hy_out[H][W],
               const float ez[H][W], const float hx[H][W],
               const float hy[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            ez_out[y][x] = ez[y][x] + 0.5f*((hy[y][x] - hy[y][x-1])
                                          - (hx[y][x] - hx[y-1][x]));
            hx_out[y][x] = hx[y][x] - 0.5f*(ez[y+1][x] - ez[y][x]);
            hy_out[y][x] = hy[y][x] + 0.5f*(ez[y][x+1] - ez[y][x]);
        }
    }
}
)";

Frame_set fdtd_initial(const Frame& content) {
    Frame_set fs(content.width(), content.height());
    fs.add_field("ez", content);
    fs.add_field("hx");
    fs.add_field("hy");
    return fs;
}

Frame_set fdtd_native(const Frame_set& in, Boundary b) {
    const Frame& ez = in.field("ez");
    const Frame& hx = in.field("hx");
    const Frame& hy = in.field("hy");
    Frame_set out(in.width(), in.height());
    Frame& ezn = out.add_field("ez");
    Frame& hxn = out.add_field("hx");
    Frame& hyn = out.add_field("hy");
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            ezn.at(x, y) = ez.sample(x, y, b) +
                           0.5 * ((hy.sample(x, y, b) - hy.sample(x - 1, y, b)) -
                                  (hx.sample(x, y, b) - hx.sample(x, y - 1, b)));
            hxn.at(x, y) = hx.sample(x, y, b) -
                           0.5 * (ez.sample(x, y + 1, b) - ez.sample(x, y, b));
            hyn.at(x, y) = hy.sample(x, y, b) +
                           0.5 * (ez.sample(x + 1, y, b) - ez.sample(x, y, b));
        }
    }
    return out;
}

// --- Upwind convection-diffusion -------------------------------------------------

const char* convection_source = R"(
// Convection-diffusion of a scalar field in a constant velocity field:
// first-order upwind advection (data-dependent on the velocity sign) plus a
// fourth-order radius-2 diffusion stencil — the widest window in the zoo.
void convection_step(float t_out[H][W], const float t[H][W],
                     const float vx[H][W], const float vy[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            float ax = vx[y][x] > 0.0f ? t[y][x] - t[y][x-1]
                                       : t[y][x+1] - t[y][x];
            float ay = vy[y][x] > 0.0f ? t[y][x] - t[y-1][x]
                                       : t[y+1][x] - t[y][x];
            float dx2 = 16.0f*(t[y][x-1] + t[y][x+1]) - t[y][x-2] - t[y][x+2]
                      - 30.0f*t[y][x];
            float dy2 = 16.0f*(t[y-1][x] + t[y+1][x]) - t[y-2][x] - t[y+2][x]
                      - 30.0f*t[y][x];
            t_out[y][x] = t[y][x] - 0.25f*(vx[y][x]*ax + vy[y][x]*ay)
                        + 0.001953125f*(dx2 + dy2);
        }
    }
}
)";

Frame_set convection_initial(const Frame& content) {
    Frame_set fs(content.width(), content.height());
    fs.add_field("t", content);
    Frame& vx = fs.add_field("vx");
    Frame& vy = fs.add_field("vy");
    for (int y = 0; y < content.height(); ++y) {
        for (int x = 0; x < content.width(); ++x) {
            // Velocities in [-1, 1] derived from the content so both upwind
            // branches are exercised.
            vx.at(x, y) = content.at(x, y) * 0.0078125 - 1.0;
            vy.at(x, y) = 1.0 - content.at(x, y) * 0.0078125;
        }
    }
    return fs;
}

Frame_set convection_native(const Frame_set& in, Boundary b) {
    const Frame& t = in.field("t");
    const Frame& vx = in.field("vx");
    const Frame& vy = in.field("vy");
    Frame_set out(in.width(), in.height());
    Frame& tn = out.add_field("t");
    for (int y = 0; y < in.height(); ++y) {
        for (int x = 0; x < in.width(); ++x) {
            const double c = t.sample(x, y, b);
            const double ax = vx.sample(x, y, b) > 0.0
                                  ? c - t.sample(x - 1, y, b)
                                  : t.sample(x + 1, y, b) - c;
            const double ay = vy.sample(x, y, b) > 0.0
                                  ? c - t.sample(x, y - 1, b)
                                  : t.sample(x, y + 1, b) - c;
            const double dx2 =
                16.0 * (t.sample(x - 1, y, b) + t.sample(x + 1, y, b)) -
                t.sample(x - 2, y, b) - t.sample(x + 2, y, b) - 30.0 * c;
            const double dy2 =
                16.0 * (t.sample(x, y - 1, b) + t.sample(x, y + 1, b)) -
                t.sample(x, y - 2, b) - t.sample(x, y + 2, b) - 30.0 * c;
            tn.at(x, y) = c - 0.25 * (vx.sample(x, y, b) * ax +
                                      vy.sample(x, y, b) * ay) +
                          0.001953125 * (dx2 + dy2);
        }
    }
    out.add_field("vx", vx);
    out.add_field("vy", vy);
    return out;
}

// --- Conway's Game of Life, integer-native ---------------------------------------

const char* conway_source = R"(
// Conway's Game of Life on an int grid (alive = 1, dead = 0). The
// integer-native sibling of `life`: the neighbour count is an int local
// computed from field reads, and the whole program stays in Q m.0 fixed
// point with zero error (compare/select tape, no multipliers).
// Cells outside the frame are dead (zero boundary).
void conway_step(int u_out[H][W], const int u[H][W]) {
    for (int y = 0; y < H; y++) {
        for (int x = 0; x < W; x++) {
            int n = u[y-1][x-1] + u[y-1][x] + u[y-1][x+1]
                  + u[y][x-1] + u[y][x+1]
                  + u[y+1][x-1] + u[y+1][x] + u[y+1][x+1];
            u_out[y][x] = (n == 3 || (u[y][x] != 0 && n == 2)) ? 1 : 0;
        }
    }
}
)";

Frame_set conway_initial(const Frame& content) {
    Frame_set fs(content.width(), content.height());
    Frame& u = fs.add_field("u");
    for (int y = 0; y < content.height(); ++y) {
        for (int x = 0; x < content.width(); ++x) {
            u.at(x, y) = content.at(x, y) > 127.0 ? 1.0 : 0.0;
        }
    }
    return fs;
}

Frame_set conway_native(const Frame_set& in, Boundary b) {
    const Frame& u = in.field("u");
    return map_single_field(in, [&](int x, int y) {
        const double n = u.sample(x - 1, y - 1, b) + u.sample(x, y - 1, b) +
                         u.sample(x + 1, y - 1, b) + u.sample(x - 1, y, b) +
                         u.sample(x + 1, y, b) + u.sample(x - 1, y + 1, b) +
                         u.sample(x, y + 1, b) + u.sample(x + 1, y + 1, b);
        const bool alive = n == 3.0 || (u.sample(x, y, b) != 0.0 && n == 2.0);
        return alive ? 1.0 : 0.0;
    });
}

std::vector<Kernel_def> build_registry() {
    std::vector<Kernel_def> kernels;

    kernels.push_back({"igf", "Iterative Gaussian Filter",
                       "3x3 binomial convolution applied iteratively (paper case "
                       "study, Sec. 4.1)",
                       igf_source, {"u"}, {}, 10, Boundary::clamp, igf_native,
                       single_field_initial, "u"});

    kernels.push_back({"chambolle", "Chambolle TV minimization",
                       "dual-field total variation fixed point (paper case study, "
                       "Sec. 4.2)",
                       chambolle_source, {"p1", "p2"}, {"g"}, 10, Boundary::clamp,
                       chambolle_native, chambolle_initial, "p1"});

    kernels.push_back({"jacobi", "Jacobi relaxation",
                       "5-point Laplace relaxation", jacobi_source, {"u"}, {}, 10,
                       Boundary::clamp, jacobi_native, single_field_initial, "u"});

    kernels.push_back({"heat", "Heat diffusion",
                       "explicit 2-D heat equation step", heat_source, {"u"}, {}, 10,
                       Boundary::clamp, heat_native, single_field_initial, "u"});

    kernels.push_back({"mean", "Iterated box blur",
                       "3x3 mean filter written with inner kernel loops",
                       mean_source, {"u"}, {}, 10, Boundary::clamp, mean_native,
                       single_field_initial, "u"});

    kernels.push_back({"erosion", "Grayscale erosion",
                       "3x3 morphological erosion (min network)", erosion_source,
                       {"u"}, {}, 10, Boundary::clamp, erosion_native,
                       single_field_initial, "u"});

    kernels.push_back({"perona_malik", "Perona-Malik diffusion",
                       "edge-preserving anisotropic diffusion", perona_malik_source,
                       {"u"}, {}, 10, Boundary::clamp, perona_malik_native,
                       single_field_initial, "u"});

    kernels.push_back({"shock", "Shock filter",
                       "Osher-Rudin shock filter with data-dependent branches",
                       shock_source, {"u"}, {}, 10, Boundary::clamp, shock_native,
                       single_field_initial, "u"});

    kernels.push_back({"life", "Game of Life",
                       "Conway's Game of Life (boolean ISL, dead outside)",
                       life_source, {"u"}, {}, 10, Boundary::zero, life_native,
                       single_field_initial, "u"});

    kernels.push_back({"hotspot", "HotSpot thermal relaxation",
                       "temperature field with constant power map and ambient leak",
                       hotspot_source, {"t"}, {"p"}, 10, Boundary::clamp,
                       hotspot_native, hotspot_initial, "t"});

    kernels.push_back({"fdtd", "FDTD electromagnetic step",
                       "coupled ez/hx/hy leapfrog update (2-D TMz)", fdtd_source,
                       {"ez", "hx", "hy"}, {}, 10, Boundary::clamp, fdtd_native,
                       fdtd_initial, "ez"});

    kernels.push_back({"convection", "Upwind convection-diffusion",
                       "radius-2 diffusion plus sign-dependent upwind advection",
                       convection_source, {"t"}, {"vx", "vy"}, 10, Boundary::clamp,
                       convection_native, convection_initial, "t"});

    kernels.push_back({"conway", "Game of Life (integer)",
                       "integer-native Life: int fields, exact Q m.0 fixed point",
                       conway_source, {"u"}, {}, 10, Boundary::zero, conway_native,
                       conway_initial, "u", true});

    return kernels;
}

}  // namespace

const std::vector<Kernel_def>& all_kernels() {
    static const std::vector<Kernel_def> registry = build_registry();
    return registry;
}

const Kernel_def& kernel_by_name(const std::string& name) {
    for (const Kernel_def& k : all_kernels()) {
        if (k.name == name) return k;
    }
    throw Error(cat("unknown kernel '", name, "'"));
}

std::vector<std::string> kernel_names() {
    std::vector<std::string> names;
    for (const Kernel_def& k : all_kernels()) names.push_back(k.name);
    return names;
}

}  // namespace islhls
