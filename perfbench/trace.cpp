// Statistics with noise guards, the metric sink and the span tracer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <utility>

#include "bench.hpp"

namespace islbench {

namespace {

std::string json_escape(const std::string& text) {
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            out += buffer;
        } else {
            out += c;
        }
    }
    return out;
}

// Full-precision number rendering ("%.17g" keeps every digit measured).
std::string number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

// Spans open on this thread, innermost last.
thread_local std::vector<int> open_spans;

// Trace-viewer thread id: 0 for the tracer's owner, a stable small number
// for any other thread.
int thread_tag(std::thread::id owner) {
    const std::thread::id self = std::this_thread::get_id();
    if (self == owner) return 0;
    return static_cast<int>(std::hash<std::thread::id>{}(self) % 1000) + 1;
}

}  // namespace

// --- statistics ------------------------------------------------------------------

double guarded_percentile(std::vector<double> samples, double q,
                          double timed_seconds) {
    if (samples.empty()) throw Guard_error("percentile of no samples");
    if (!(q > 0.0 && q < 1.0)) throw Guard_error("percentile outside (0, 1)");
    const auto beyond = static_cast<long long>(
        std::floor(static_cast<double>(samples.size()) * (1.0 - q) + 1e-9));
    const bool long_median = q == 0.5 && timed_seconds >= 1.0;
    if (beyond < 10 && !long_median) {
        std::ostringstream os;
        os << "p" << q * 100 << " of " << samples.size() << " samples ("
           << timed_seconds << " s timed) has " << beyond
           << " samples beyond it; at least 10 are needed";
        throw Guard_error(os.str());
    }
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (samples[hi] - samples[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> samples) {
    if (samples.empty()) throw Guard_error("median of no samples");
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double geomean(const std::vector<double>& values) {
    if (values.empty()) throw Guard_error("geomean of no values");
    double log_sum = 0.0;
    for (double v : values) {
        if (!(v > 0.0)) throw Guard_error("geomean of a non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

// --- metrics ---------------------------------------------------------------------

void Metric_set::add(const std::string& name, const std::string& unit, double value,
                     long long samples) {
    if (samples <= 0) {
        throw Guard_error("metric " + name + " has no samples in this run");
    }
    if (!std::isfinite(value)) throw Guard_error("metric " + name + " is not finite");
    for (const Metric& m : metrics_) {
        if (m.name == name) throw Guard_error("metric " + name + " reported twice");
    }
    metrics_.push_back({name, unit, value});
}

void Metric_set::require_exactly(const std::vector<std::string>& expected) const {
    const std::set<std::string> want(expected.begin(), expected.end());
    std::set<std::string> have;
    for (const Metric& m : metrics_) have.insert(m.name);
    std::string problems;
    for (const std::string& name : want) {
        if (!have.count(name)) problems += " missing " + name + ";";
    }
    for (const std::string& name : have) {
        if (!want.count(name)) problems += " unexpected " + name + ";";
    }
    if (!problems.empty()) throw Guard_error("metric set mismatch:" + problems);
}

std::string Metric_set::json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        if (i) out += ", ";
        out += "\"" + json_escape(metrics_[i].name) + "\": {\"value\": " +
               number(metrics_[i].value) + ", \"unit\": \"" +
               json_escape(metrics_[i].unit) + "\"}";
    }
    return out + "}";
}

const std::vector<std::string>& end_to_end_metric_names() {
    static const std::vector<std::string> names = {"setup_s", "op_wall_ms_p50",
                                                   "peak_rss_mb", "ok_frac"};
    return names;
}

const std::vector<std::string>& per_layer_metric_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n = {
            "frontend.extract_ms", "cone.build_s", "cone.builds", "cone.pool_nodes",
            "synth.runs", "synth.host_s", "dse.fit_s", "dse.pareto_s",
            "dse.pareto_points", "dse.points_per_s", "dse.streaming_s",
            "format.search_s", "format.cells", "archsim.validate_s"};
        for (const char* domain : {"double", "fixed"}) {
            for (const char* kernel : {"heat", "igf", "chambolle", "fdtd", "conway"}) {
                for (const char* frame : {"256x192", "2048x1024"}) {
                    n.push_back(std::string("engine.") + domain + "_mcells." + kernel +
                                "." + frame);
                }
            }
        }
        for (const char* rest :
             {"engine.fixed_vs_double", "engine.roofline_frac", "engine.scaling_2t",
              "cache.store_ms_p50", "cache.stores", "cache.bytes_written",
              "cache.load_us_p50", "cache.loads", "cache.bytes_read", "cache.hit_frac",
              "records.serialize_ms", "records.parse_us_p50", "service.open_ms",
              "queue.dedup_frac", "trace.coverage"}) {
            n.push_back(rest);
        }
        return n;
    }();
    return names;
}

// --- tracing ---------------------------------------------------------------------

Tracer::Tracer()
    : origin_ns_(std::chrono::steady_clock::now().time_since_epoch().count()),
      owner_(std::this_thread::get_id()) {}

double Tracer::now_us() const {
    return static_cast<double>(
               std::chrono::steady_clock::now().time_since_epoch().count() -
               origin_ns_) /
           1e3;
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void Tracer::record(std::string name, std::string request, double start_us,
                    double end_us) {
    const int parent = !open_spans.empty() ? open_spans.back() : ambient_.load();
    Span span;
    span.name = std::move(name);
    span.request = std::move(request);
    span.start_us = start_us;
    span.end_us = end_us;
    span.parent = parent;
    span.thread = thread_tag(owner_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string request)
    : tracer_(tracer), start_us_(tracer->now_us()) {
    const bool owner = std::this_thread::get_id() == tracer_->owner_;
    const int parent = !open_spans.empty() ? open_spans.back()
                                           : tracer_->ambient_.load();
    {
        std::lock_guard<std::mutex> lock(tracer_->mutex_);
        index_ = static_cast<int>(tracer_->spans_.size());
        Span span;
        span.name = std::move(name);
        span.request = std::move(request);
        span.start_us = start_us_;
        span.parent = parent;
        span.thread = thread_tag(tracer_->owner_);
        tracer_->spans_.push_back(std::move(span));
    }
    open_spans.push_back(index_);
    if (owner) saved_ambient_ = tracer_->ambient_.exchange(index_);
}

Tracer::Scope::~Scope() {
    const double end = tracer_->now_us();
    open_spans.pop_back();
    if (std::this_thread::get_id() == tracer_->owner_) {
        tracer_->ambient_.store(saved_ambient_);
    }
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_[static_cast<std::size_t>(index_)].end_us = end;
}

double Tracer::Scope::elapsed_s() const {
    return (tracer_->now_us() - start_us_) / 1e6;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<double, double>>> children(spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].push_back({s.start_us, s.end_us});
        }
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start_us;
        const double hi = spans[i].end_us;
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the children's intervals clipped to the parent's: pool
        // workers run children concurrently, so they may overlap.
        double covered = 0.0;
        double run_lo = 0.0;
        double run_hi = -1.0;
        for (auto [a, b] : kids) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a) continue;
            if (a > run_hi) {
                if (run_hi > run_lo) covered += run_hi - run_lo;
                run_lo = a;
                run_hi = b;
            } else {
                run_hi = std::max(run_hi, b);
            }
        }
        if (run_hi > run_lo) covered += run_hi - run_lo;
        self[i] = std::max(0.0, hi - lo - covered);
    }
    return self;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
    const std::vector<double> self = self_times_us(spans);
    std::ostringstream os;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << json_escape(s.name)
           << "\", \"cat\": \"" << json_escape(s.request)
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
           << ", \"ts\": " << number(s.start_us)
           << ", \"dur\": " << number(s.end_us - s.start_us)
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"request\": \"" << json_escape(s.request)
           << "\", \"self_us\": " << number(self[i]) << "}}";
    }
    os << "\n]}\n";
    return os.str();
}

}  // namespace islbench
