#include "core/sweep_records.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "ir/print.hpp"
#include "support/text.hpp"

namespace islhls {

std::string encode_double_bits(double value) {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(value)));
    return out;
}

bool decode_double_bits(std::string_view text, double* value) {
    if (text.size() != 16) return false;
    std::uint64_t bits = 0;
    for (char c : text) {
        int digit;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else return false;
        bits = (bits << 4) | static_cast<std::uint64_t>(digit);
    }
    *value = std::bit_cast<double>(bits);
    return true;
}

namespace {

// --- canonical value text ---------------------------------------------------------
// Every persisted value has one text form: render() produces it and parse()
// accepts nothing else (no signs, blanks or leading zeros, no out-of-range
// integers, no unsorted map keys), so any accepted record re-serializes
// byte for byte. Lists are elements joined by single spaces; map entries
// are `key:value` elements.

std::string render(bool value) { return value ? "1" : "0"; }
template <std::integral Int>
std::string render(Int value) { return std::to_string(value); }
std::string render(double value) { return encode_double_bits(value); }
std::string render(const std::string& value) { return value; }

template <class T>
std::string render(const std::pair<const int, T>& entry) {
    return render(entry.first) + ":" + render(entry.second);
}

template <class Range>
std::string render_list(const Range& values) {
    std::string out;
    for (const auto& value : values) {
        if (!out.empty()) out += ' ';
        out += render(value);
    }
    return out;
}
template <class T>
std::string render(const std::vector<T>& values) { return render_list(values); }
template <class T>
std::string render(const std::map<int, T>& values) { return render_list(values); }

bool parse(std::string_view text, bool* value) {
    *value = text == "1";
    return text == "0" || text == "1";
}
template <std::integral Int>
bool parse(std::string_view text, Int* value) {
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, *value);
    return error == std::errc() && stop == end && render(*value) == text;
}
bool parse(std::string_view text, double* value) {
    return decode_double_bits(text, value);
}
bool parse(std::string_view text, std::string* value) {
    value->assign(text);
    return true;
}

template <class T>
bool parse(std::string_view text, std::pair<int, T>* entry) {
    const std::size_t colon = text.find(':');
    return colon != std::string_view::npos &&
           parse(text.substr(0, colon), &entry->first) &&
           parse(text.substr(colon + 1), &entry->second);
}

template <class T>
bool parse(std::string_view text, std::vector<T>* values) {
    values->clear();
    if (text.empty()) return true;
    for (const std::string& element : split(std::string(text), ' ')) {
        if (!parse(element, &values->emplace_back())) return false;
    }
    return true;
}

template <class T>
bool parse(std::string_view text, std::map<int, T>* values) {
    std::vector<std::pair<int, T>> entries;
    const bool ok = parse(text, &entries);
    *values = std::map<int, T>(entries.begin(), entries.end());
    // Strictly ascending keys: the only order a std::map renders.
    return ok && values->size() == entries.size() &&
           std::is_sorted(entries.begin(), entries.end());
}

// --- the field lists --------------------------------------------------------------
// Each persisted payload is described once, in on-disk order, to a visitor
// `v` that either writes it or strictly reads it back:
//   v(name, values...)     one line: `name`, then ' ' + each value's text
//                          (nothing for an empty text); a text or list
//                          value takes the rest of the line, so it comes last;
//   v.rows(count, values)  a `count N` line, then the N elements' lists.

template <class V>
void fields(V& v, Front_point& p) {
    v("fp", p.area_luts, p.seconds_per_frame, p.fps, p.config);
}

template <class V>
void fields(V& v, Arch_evaluation& e) {
    v("eval.window", e.instance.window);
    v("eval.depths", e.instance.level_depths);
    v("eval.cores", e.instance.cores_per_depth);
    v("eval.feasible", e.feasible);
    v("eval.reason", e.infeasible_reason);
    v("eval.estimated_area_luts", e.estimated_area_luts);
    v("eval.actual_area_luts", e.actual_area_luts);
    v("eval.f_max_mhz", e.f_max_mhz);
    v("eval.windows_per_frame", e.windows_per_frame);
    v("eval.tp.cycles_per_window", e.throughput.cycles_per_window);
    v("eval.tp.core_bound", e.throughput.core_bound_cycles);
    v("eval.tp.onchip_bound", e.throughput.onchip_bound_cycles);
    v("eval.tp.offchip_bound", e.throughput.offchip_bound_cycles);
    v("eval.tp.bottleneck", e.throughput.bottleneck);
    v("eval.tp.seconds_per_frame", e.throughput.seconds_per_frame);
    v("eval.tp.fps", e.throughput.fps);
    v("eval.tp.class_cycles", e.throughput.class_cycles);
    v("eval.mem.input", e.memory.input_buffer_kbits);
    v("eval.mem.intermediate", e.memory.intermediate_kbits);
    v("eval.mem.output", e.memory.output_buffer_kbits);
    v("eval.mem.total", e.memory.total_kbits);
    v("eval.mem.whole_frame", e.memory.whole_frame_kbits);
    v("eval.mem.saving", e.memory.saving_factor);
}

template <class V>
void fields(V& v, Streaming_evaluation& e) {
    v("stream.config", e.config.depth, e.config.vector_width, e.config.pe_count,
      e.config.channels);
    v("stream.feasible", e.feasible);
    v("stream.reason", e.infeasible_reason);
    v("stream.area_luts", e.area_luts);
    v("stream.datapath_luts", e.datapath_luts);
    v("stream.line_buffer_luts", e.line_buffer_luts);
    v("stream.line_buffer_kbits", e.line_buffer_kbits);
    v("stream.f_max_mhz", e.f_max_mhz);
    v("stream.passes", e.passes);
    v("stream.compute_cycles", e.compute_cycles);
    v("stream.memory_cycles", e.memory_cycles);
    v("stream.cycles_per_pass", e.cycles_per_pass);
    v("stream.bottleneck", e.bottleneck);
    v("stream.seconds_per_frame", e.seconds_per_frame);
    v("stream.fps", e.fps);
}

template <class V>
void fields(V& v, Sweep_entry& e) {
    v("kernel", e.kernel);
    v("device", e.device);
    v("iterations", e.iterations);
    v("backend", e.backend);
    v("fits", e.fits);
    // The reader has already read `fits` and `backend` when it gets here.
    if (e.fits) {
        if (e.backend == "streaming") fields(v, e.streaming_best);
        else fields(v, e.best);
    }
    v("pareto_points", e.pareto_points);
    v("pareto_front", e.pareto_front_size);
    v.rows("front_points", e.front_points);
    v("validated", e.validated);
    v("validation_max_abs_err", e.validation_max_abs_err);
    v("format_searched", e.format_searched);
    v("format_satisfiable", e.format_satisfiable);
    v("format_exact", e.format_exact);
    v("format", e.fixed_format.integer_bits, e.fixed_format.frac_bits);
    v("format_psnr_db", e.format_psnr_db);
    v("searched_area_luts", e.searched_area_luts);
    v("searched_fps", e.searched_fps);
    v("searched_f_max_mhz", e.searched_f_max_mhz);
    v("validated_fixed", e.validated_fixed);
    v("validation_max_raw_err", e.validation_max_raw_err);
}

template <class V>
void fields(V& v, Format_cell& c) {
    Format_search_result& r = c.result;
    v("cell", c.window, c.depth, r.format.integer_bits, r.format.frac_bits, r.psnr_db,
      r.exact, r.max_abs_value, r.range_integer_bits, r.formats_tried, r.satisfiable,
      c.evaluated, c.area_luts, c.f_max_mhz, c.fps);
}

template <class V>
void fields(V& v, Format_grid& g) {
    v("backend", g.backend);
    v.rows("cells", g.cells);
}

// Writer-only field lists: in-memory exploration results that are compared
// byte for byte but never persisted.

template <class V>
void fields(V& v, Pareto_result& r) {
    v.rows("points", r.points);
    v("front", r.front);
}

template <class V>
void fields(V& v, Fit_cell& c) {
    v("fit_cell", c.window, c.primary_depth, c.valid);
    fields(v, c.eval);
}

template <class V>
void fields(V& v, Fit_result& r) {
    v.rows("grid", r.grid);
    v("has_best", r.has_best);
    fields(v, r.best);
}

template <class V>
void fields(V& v, Area_point& p) {
    v("area_point", p.window, p.depth, p.registers, p.estimated_luts, p.actual_luts,
      p.is_calibration, p.rel_error);
}

template <class V>
void fields(V& v, Area_validation& a) {
    v.rows("points", a.points);
    v("max_rel_error", a.max_rel_error);
    v("avg_rel_error", a.avg_rel_error);
}

template <class V>
void fields(V& v, Synthesis_report& r) {
    v("design", r.design_name);
    v("lut_count", r.lut_count);
    v("raw_lut_count", r.raw_lut_count);
    v("ff_count", r.ff_count);
    v("dsp_count", r.dsp_count);
    v("bram_kbits", r.bram_kbits);
    v("f_max_mhz", r.f_max_mhz);
    v("latency_cycles", r.latency_cycles);
    v("register_count", r.register_count);
    v("synthesis_cpu_seconds", r.synthesis_cpu_seconds);
    v("fits", r.fits);
}

// --- the writer and the strict reader --------------------------------------------

struct Writer {
    std::string out;

    template <class... T>
    void operator()(const char* name, const T&... values) {
        out += name;
        (append(render(values)), ...);
        out += '\n';
    }

    template <class T>
    void rows(const char* count, std::vector<T>& values) {
        (*this)(count, values.size());
        for (T& value : values) fields(*this, value);
    }

    void append(const std::string& text) {
        if (!text.empty()) (out += ' ') += text;
    }
};

// Any deviation from the writer's output — a wrong or missing line, a
// malformed or non-canonical value, trailing text — fails the whole parse
// with a line-numbered message, and the caller recomputes.
class Reader {
public:
    explicit Reader(std::string_view text) : text_(text) {}

    template <class... T>
    void operator()(const char* name, T&... values) {
        if (!next_line(name)) return;
        (read(name, values), ...);
        if (!rest_.empty()) fail(cat("unexpected text after ", name));
    }

    template <class T>
    void rows(const char* count, std::vector<T>& values) {
        std::size_t size = 0;
        (*this)(count, size);
        values.clear();
        for (std::size_t i = 0; !failed() && i < size; ++i) {
            fields(*this, values.emplace_back());
        }
    }

    // Requires the whole text to have been read.
    void finish() {
        if (pos_ != text_.size()) fail("unexpected text after the end");
    }

    bool failed() const { return !error_.empty(); }
    const std::string& error() const { return error_; }

private:
    // Consumes the next '\n'-terminated line, which must be `name` alone or
    // followed by ' '; rest_ receives what follows `name`.
    bool next_line(std::string_view name) {
        if (failed()) return false;
        ++line_;
        const std::size_t eol = text_.find('\n', pos_);
        const std::string_view line =
            text_.substr(pos_, eol == std::string_view::npos ? eol : eol - pos_);
        if (eol == std::string_view::npos || !line.starts_with(name) ||
            (line.size() > name.size() && line[name.size()] != ' ')) {
            fail(cat("expected '", name, "', got '", line, "'",
                     eol == std::string_view::npos ? " and no line end" : ""));
            return false;
        }
        rest_ = line.substr(name.size());
        pos_ = eol + 1;
        return true;
    }

    // One value off the front of rest_: a number ends at the next
    // separator, a text or list takes the rest of the line.
    template <class T>
    void read(const char* name, T& value) {
        if (failed()) return;
        const std::size_t end = std::is_arithmetic_v<T>
                                    ? std::min(rest_.find(' ', 1), rest_.size())
                                    : rest_.size();
        const bool ok = end == 0 ? parse("", &value)
                                 : rest_[0] == ' ' && end > 1 &&
                                       parse(rest_.substr(1, end - 1), &value);
        rest_.remove_prefix(end);
        if (!ok) fail(cat("bad ", name, " value"));
    }

    void fail(const std::string& why) {
        if (!failed()) error_ = cat("line ", line_, ": ", why);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string_view rest_;  // the unread part of the current line
    int line_ = 0;
    std::string error_;
};

// --- records ----------------------------------------------------------------------
// A record is its header line, the payload's field list, then `end`.

constexpr const char* kEntryHeader = "sweep-entry v4";
constexpr const char* kGridHeader = "format-grid v4";
constexpr const char* kSynthesisHeader = "synthesis-report v1";

template <class T>
std::string write_record(const char* header, const T& value) {
    Writer writer;
    writer(header);
    // The field lists take mutable references so the reader can share them;
    // the writer only reads through them.
    fields(writer, const_cast<T&>(value));
    writer("end");
    return std::move(writer.out);
}

template <class T>
bool read_record(const char* header, const std::string& text, T* value,
                 std::string* error) {
    Reader reader(text);
    T out;
    reader(header);
    fields(reader, out);
    reader("end");
    reader.finish();
    if (reader.failed()) *error = reader.error();
    else *value = std::move(out);
    return !reader.failed();
}

}  // namespace

std::string serialize_record(const Sweep_entry& entry) {
    return write_record(kEntryHeader, entry);
}

bool parse_record(const std::string& text, Sweep_entry* entry, std::string* error) {
    return read_record(kEntryHeader, text, entry, error);
}

std::string serialize_record(const Format_grid& grid) {
    return write_record(kGridHeader, grid);
}

bool parse_record(const std::string& text, Format_grid* grid, std::string* error) {
    return read_record(kGridHeader, text, grid, error);
}

std::string serialize_record(const Synthesis_report& report) {
    return write_record(kSynthesisHeader, report);
}

bool parse_record(const std::string& text, Synthesis_report* report,
                  std::string* error) {
    return read_record(kSynthesisHeader, text, report, error);
}

std::string serialize_record(const Arch_evaluation& eval) {
    return write_record("arch-evaluation", eval);
}

std::string serialize_record(const Pareto_result& result) {
    return write_record("pareto-result", result);
}

std::string serialize_record(const Fit_result& result) {
    return write_record("fit-result", result);
}

std::string serialize_record(const Area_validation& validation) {
    return write_record("area-validation", validation);
}

// --- cache keys -------------------------------------------------------------------

std::string kernel_ir_key(const std::string& kernel_name, Boundary boundary,
                          const Stencil_step& step) {
    std::ostringstream os;
    os << "kernel " << kernel_name << "\n";
    os << "boundary " << to_string(boundary) << "\n";
    for (const std::string& name : step.const_fields()) {
        os << "const " << name << "\n";
    }
    const std::vector<std::string>& fields = step.state_fields();
    for (std::size_t i = 0; i < fields.size(); ++i) {
        os << "state " << fields[i] << " = "
           << to_sexpr(step.pool(), step.update(static_cast<int>(i))) << "\n";
    }
    return os.str();
}

namespace {

// Every option that can change a cached result, one line per option group,
// written like record lines. The first six lines are all a format grid
// depends on (its cells are searched over the validation content and priced
// on the modeled frame), so `grid_only` stops there. Thread counts are
// deliberately absent: results are byte-identical at any fan-out width, so
// a warm cache serves requests regardless of how parallel the original run
// was.
std::string key_options(const Sweep_config& c, bool grid_only) {
    const Format_search_options& s = c.format_search;
    const Throughput_params& tp = c.throughput;
    Writer key;
    key("frame", c.frame_width, c.frame_height);
    key("space", c.space.max_window, c.space.max_depth);
    key("content", c.validation_frame_width, c.validation_frame_height,
        c.validation_seed);
    key("search", s.target_psnr_db, s.peak_value, s.sample_windows, s.max_total_bits,
        s.seed, s.shrink_integer_bits);
    key("throughput", tp.core_read_ports, tp.global_read_ports, tp.offchip_write_cost,
        tp.class_switch_cycles);
    key("calibration_windows", c.calibration_windows);
    if (grid_only) return key.out;
    key("format", c.format.integer_bits, c.format.frac_bits);
    key("budget", c.space.max_cores_per_sweep, c.space.pareto_area_cap_luts);
    key("with_pareto", c.with_pareto);
    key("validate", c.validate);
    key("search_formats", c.search_formats);
    key("validate_fixed", c.validate_fixed);
    return key.out;
}

}  // namespace

std::string sweep_entry_key(const std::string& ir_key, const Sweep_config& config,
                            const std::string& device, int iterations,
                            const std::string& backend) {
    return cat("sweep-entry-key v4\n", ir_key, "device ", device, "\niterations ",
               iterations, "\nbackend ", backend, "\n", key_options(config, false));
}

std::string format_grid_key(const std::string& ir_key, const Sweep_config& config,
                            const std::string& device) {
    return cat("format-grid-key v4\n", ir_key, "device ", device, "\n",
               key_options(config, true));
}

std::string synthesis_key_prefix(const std::string& ir_key) {
    return cat("synthesis-key v1\n", ir_key);
}

std::string sweep_request_key(const Sweep_config& config) {
    Writer key;
    key("sweep-request v4");
    key("kernels", config.kernels);
    key("devices", config.devices);
    key("iterations", config.iteration_counts);
    key("backends", config.backends);
    return key.out + key_options(config, false);
}

}  // namespace islhls
