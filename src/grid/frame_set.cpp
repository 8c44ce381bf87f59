#include "grid/frame_set.hpp"

#include <utility>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

Frame_set::Frame_set(int width, int height) : width_(width), height_(height) {
    check_internal(width >= 0 && height >= 0, "Frame_set dimensions must be non-negative");
}

int Frame_set::index_of(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) return static_cast<int>(i);
    }
    return -1;
}

Frame& Frame_set::add_field(const std::string& name) {
    return add_field(name, Frame(width_, height_));
}

Frame& Frame_set::add_field(const std::string& name, Frame frame) {
    if (index_of(name) >= 0) throw Error(cat("duplicate field '", name, "'"));
    if (frame.width() != width_ || frame.height() != height_) {
        throw Error(cat("field '", name, "' has size ", frame.width(), "x",
                        frame.height(), ", expected ", width_, "x", height_));
    }
    names_.push_back(name);
    frames_.push_back(std::move(frame));
    return frames_.back();
}

bool Frame_set::has_field(const std::string& name) const { return index_of(name) >= 0; }

Frame& Frame_set::field(const std::string& name) {
    return const_cast<Frame&>(std::as_const(*this).field(name));
}

const Frame& Frame_set::field(const std::string& name) const {
    const int i = index_of(name);
    if (i < 0) throw Error(cat("unknown field '", name, "'"));
    return frames_[static_cast<std::size_t>(i)];
}

}  // namespace islhls
