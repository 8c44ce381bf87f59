// Cache of built cones and their (virtual) synthesis results for one kernel.
//
// Cones share one unrolling memo (Cone_memo) beside the kernel's expression
// pool: the value of every (state field, level, x, y) is substituted once
// per kernel, so the first cone pays for its values and every later cone
// mostly reads them, whatever order the grid is built in. Register programs
// order commutative operands by structure, not by node id, so a cone's
// program equals the one a standalone Cone(step, spec) with a private memo
// builds (locked by tests/test_cone_order.cpp). Synthesizing a cone is the
// expensive step (the virtual synthesizer models tool runtimes of minutes
// to hours); the library memoizes it too and tracks the cumulative
// simulated synthesis CPU time, so the flow can report how much the
// estimation-based exploration saves over synthesizing every design point.
//
// The library is safe for concurrent callers: lookups take a shared lock;
// cone cache misses build under the exclusive lock (building extends the
// shared pool and memo, so it must serialize), while synthesis misses run
// the virtual synthesizer outside any lock (it only reads the cone's
// immutable tape) and insert first-wins — racing threads may duplicate a
// deterministic synthesis but never diverge. Returned references stay
// valid for the library's lifetime (node-based storage). Every meter is
// schedule-independent: the synthesis meter is derived from the memoization
// map in key order, and cone_lookups() counts the callers' lookups only.
//
// Readers of step() that bypass the lock (footprint(), golden runs over the
// pool, and Cone::lower(), which re-lowers a cone's SSA program from the
// pool for the VHDL emitter and the test oracles) must not run while a cone
// miss extends the pool. Two patterns keep them apart: build the cone grid
// first (Arch_evaluator::calibrate(), or the CLI's VHDL export, which runs
// after its sweep), or keep the kernel inside one task (Sweep_service's
// kernel fan-out). The DSE
// hot path is not a reader of either kind: an Arch_evaluator copies the
// step's footprint and field counts when it is constructed and asks the
// library for each (window, depth) cone's price once per calibrated grid
// (its price table), so candidate evaluations take no library lock.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cone/cone.hpp"
#include "symexec/stencil_step.hpp"
#include "synth/device.hpp"
#include "synth/synthesizer.hpp"

namespace islhls {

// Optional persistence seam for synthesis results. The library stays
// storage-agnostic: the owner (core/service.hpp) binds these to its
// content-addressed result cache. `load` returns a report previously stored
// under `key` or nullopt; `store` persists one best-effort (failures are the
// store's problem, never the library's). Both must be thread-safe.
struct Synthesis_store {
    std::function<std::optional<Synthesis_report>(const std::string& key)> load;
    std::function<void(const std::string& key, const Synthesis_report&)> store;
};

class Cone_library {
public:
    // Takes ownership of the stencil step (the shared expression pool).
    Cone_library(Stencil_step step, std::string kernel_name);

    const std::string& kernel_name() const { return kernel_name_; }
    const Stencil_step& step() const { return step_; }
    Stencil_step& step() { return step_; }

    // Builds (or returns the cached) square-window cone.
    const Cone& cone(int window, int depth);
    const Cone_stats& stats(int window, int depth);

    // Runs (or returns the cached) virtual synthesis of the cone on `device`.
    // Every *new* synthesis adds its simulated tool runtime to the meter.
    const Synthesis_report& synthesis(int window, int depth, const Fpga_device& device,
                                      const Synth_options& options);

    // Attaches a persistent synthesis store: synthesis() misses consult it
    // before running the virtual synthesizer, and fresh results are written
    // back through it. `key_prefix` pins the kernel's content identity so
    // two kernels (or two versions of one) never share records.
    void attach_synthesis_store(Synthesis_store store, std::string key_prefix);

    // Number of distinct syntheses performed and their cumulative simulated
    // CPU time (sum over the cache in key order — schedule-independent).
    // Reports loaded from the persistent store count as synthesis_loads(),
    // not runs, and contribute no CPU time: they were paid for in an
    // earlier process.
    int synthesis_runs() const;
    int synthesis_loads() const;
    double synthesis_cpu_seconds() const;

    // Simulated tool runtime of each cached synthesis, in key order. Feed to
    // lpt_makespan() to report what a farm of synthesis workers would take.
    std::vector<double> synthesis_costs() const;

    // Cache effectiveness counters: lookups made through cone() and stats()
    // (hits = lookups - builds).
    long long cone_lookups() const { return cone_lookups_.load(); }
    long long synthesis_lookups() const { return synthesis_lookups_.load(); }
    int cone_builds() const;

private:
    using Synthesis_key = std::tuple<int, int, std::string>;

    // cone() without touching the lookup meter.
    const Cone& find_or_build(int window, int depth);

    Stencil_step step_;
    Cone_memo memo_;  // guarded by mutex_ (exclusive)
    std::string kernel_name_;
    Synthesis_store store_;
    std::string store_key_prefix_;
    mutable std::shared_mutex mutex_;
    std::map<std::pair<int, int>, std::unique_ptr<Cone>> cones_;
    std::map<Synthesis_key, Synthesis_report> syntheses_;
    std::set<Synthesis_key> loaded_;  // subset of syntheses_ from the store
    std::atomic<long long> cone_lookups_{0};
    std::atomic<long long> synthesis_lookups_{0};
};

// Human-readable summary of the library's kernel: its fields, single-step
// footprint and update expressions, and one example cone (4x4, depth 2).
std::string describe(Cone_library& library);

}  // namespace islhls
