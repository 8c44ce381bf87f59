#include "grid/frame_set.hpp"

#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "support/error.hpp"
#include "support/text.hpp"

namespace islhls {

namespace {

// The process-wide name <-> id registry. Reads (the common case once a name
// has been seen anywhere) take the shared lock; only a first-ever intern of
// a name upgrades to exclusive. `names` is a deque so the references
// field_name() hands out survive later interns.
struct Field_registry {
    std::shared_mutex mutex;
    std::unordered_map<std::string, Field_id> ids;
    std::deque<std::string> names;
};

Field_registry& registry() {
    static Field_registry r;
    return r;
}

}  // namespace

Field_id intern_field(const std::string& name) {
    Field_registry& r = registry();
    {
        const std::shared_lock<std::shared_mutex> lock(r.mutex);
        const auto it = r.ids.find(name);
        if (it != r.ids.end()) return it->second;
    }
    const std::unique_lock<std::shared_mutex> lock(r.mutex);
    const auto [it, inserted] = r.ids.emplace(name, static_cast<Field_id>(r.names.size()));
    if (inserted) r.names.push_back(name);
    return it->second;
}

Field_id find_field_id(const std::string& name) {
    Field_registry& r = registry();
    const std::shared_lock<std::shared_mutex> lock(r.mutex);
    const auto it = r.ids.find(name);
    return it != r.ids.end() ? it->second : -1;
}

const std::string& field_name(Field_id id) {
    Field_registry& r = registry();
    const std::shared_lock<std::shared_mutex> lock(r.mutex);
    check_internal(id >= 0 && static_cast<std::size_t>(id) < r.names.size(),
                   "field_name of uninterned id ", id);
    return r.names[static_cast<std::size_t>(id)];
}

Frame_set::Frame_set(int width, int height) : width_(width), height_(height) {
    check_internal(width >= 0 && height >= 0, "Frame_set dimensions must be non-negative");
}

int Frame_set::index_of(Field_id id) const {
    for (std::size_t i = 0; i < ids_.size(); ++i) {
        if (ids_[i] == id) return static_cast<int>(i);
    }
    return -1;
}

Frame& Frame_set::add_field(const std::string& name) {
    return add_field(intern_field(name), Frame(width_, height_));
}

Frame& Frame_set::add_field(const std::string& name, Frame frame) {
    return add_field(intern_field(name), std::move(frame));
}

Frame& Frame_set::add_field(Field_id id, Frame frame) {
    if (index_of(id) >= 0) throw Error(cat("duplicate field '", field_name(id), "'"));
    if (frame.width() != width_ || frame.height() != height_) {
        throw Error(cat("field '", field_name(id), "' has size ", frame.width(), "x",
                        frame.height(), ", expected ", width_, "x", height_));
    }
    names_.push_back(field_name(id));
    ids_.push_back(id);
    frames_.push_back(std::move(frame));
    return frames_.back();
}

bool Frame_set::has_field(const std::string& name) const {
    const Field_id id = find_field_id(name);
    return id >= 0 && index_of(id) >= 0;
}

Frame& Frame_set::field(const std::string& name) {
    return const_cast<Frame&>(std::as_const(*this).field(name));
}

const Frame& Frame_set::field(const std::string& name) const {
    const Field_id id = find_field_id(name);
    const int i = id >= 0 ? index_of(id) : -1;
    if (i < 0) throw Error(cat("unknown field '", name, "'"));
    return frames_[static_cast<std::size_t>(i)];
}

Frame& Frame_set::field(Field_id id) {
    const int i = index_of(id);
    if (i < 0) throw Error(cat("unknown field '", field_name(id), "'"));
    return frames_[static_cast<std::size_t>(i)];
}

const Frame& Frame_set::field(Field_id id) const {
    const int i = index_of(id);
    if (i < 0) throw Error(cat("unknown field '", field_name(id), "'"));
    return frames_[static_cast<std::size_t>(i)];
}

}  // namespace islhls
