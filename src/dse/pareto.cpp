#include "dse/pareto.hpp"

#include <algorithm>
#include <limits>

namespace islhls {

bool dominates(const Design_point& a, const Design_point& b) {
    const bool no_worse = a.area_luts <= b.area_luts &&
                          a.seconds_per_frame <= b.seconds_per_frame;
    const bool better = a.area_luts < b.area_luts ||
                        a.seconds_per_frame < b.seconds_per_frame;
    return no_worse && better;
}

std::vector<std::size_t> pareto_front(const std::vector<Design_point>& points) {
    // Sort by area ascending, then time ascending, then index, so equal
    // points keep the first occurrence; sweep keeping the points that
    // strictly improve the best time seen so far.
    std::vector<std::size_t> order(points.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        if (points[a].area_luts != points[b].area_luts) {
            return points[a].area_luts < points[b].area_luts;
        }
        if (points[a].seconds_per_frame != points[b].seconds_per_frame) {
            return points[a].seconds_per_frame < points[b].seconds_per_frame;
        }
        return a < b;
    });
    std::vector<std::size_t> front;
    double best_time = std::numeric_limits<double>::infinity();
    for (std::size_t idx : order) {
        if (points[idx].seconds_per_frame < best_time) {
            front.push_back(idx);
            best_time = points[idx].seconds_per_frame;
        }
    }
    return front;
}

}  // namespace islhls
