// Named collections of equally-sized frames.
//
// An ISL state can span several fields (Chambolle advances the dual fields
// p1 and p2 and additionally reads the constant input image g). A Frame_set
// holds one Frame per field name, all with identical dimensions. A set
// holds a handful of fields, so a lookup by name is a linear compare over
// them; callers visiting every field use the positional accessors.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "grid/frame.hpp"

namespace islhls {

class Frame_set {
public:
    Frame_set() = default;
    Frame_set(int width, int height);

    int width() const { return width_; }
    int height() const { return height_; }
    std::size_t field_count() const { return names_.size(); }

    // Adds a zero-filled field; throws if the name already exists.
    Frame& add_field(const std::string& name);
    // Adds a field initialized from `frame`; dimensions must match.
    Frame& add_field(const std::string& name, Frame frame);

    bool has_field(const std::string& name) const;
    Frame& field(const std::string& name);
    const Frame& field(const std::string& name) const;

    // Positional access (insertion order) for callers iterating every field.
    Frame& frame_at(std::size_t i) { return frames_[i]; }
    const Frame& frame_at(std::size_t i) const { return frames_[i]; }

    // Field names in insertion order (deterministic iteration).
    const std::vector<std::string>& names() const { return names_; }

    bool operator==(const Frame_set& other) const = default;

private:
    // Position of `name` within this set; -1 when absent.
    int index_of(const std::string& name) const;

    int width_ = 0;
    int height_ = 0;
    std::vector<std::string> names_;
    // deque: references returned by add_field()/field() stay valid when more
    // fields are added later (vector reallocation would dangle them).
    std::deque<Frame> frames_;
};

}  // namespace islhls
