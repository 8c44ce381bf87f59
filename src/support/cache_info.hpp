// Cache-topology probe for cache-shaped execution.
//
// The execution engine sizes its temporal-tiling decisions from the
// data-cache hierarchy of the host it actually runs on: how many bytes of
// working set stay resident decides when fusing iterations pays for its
// halo recompute and how tall a row band may grow. Those
// used to be hard-coded constants (32 MiB / 8 MiB) tuned for one machine;
// this probe reads the real sizes once per process — sysfs on Linux, then
// sysconf, then conservative fallbacks — so the same binary shapes itself
// to a 4 MiB laptop LLC and a 256 MiB server LLC alike.
//
// Callers that need determinism across hosts (tests, committed bench
// baselines) pin explicit budgets through Exec_options instead of relying
// on the probe; the probe only ever feeds heuristics, never results — every
// budget produces byte-identical frames.
#pragma once

#include <cstddef>
#include <string>

namespace islhls {

// Per-level data-cache sizes in bytes. Every field is non-zero: levels the
// host does not report fall back to conservative defaults (the constants
// the engine shipped with before the probe existed).
struct Cache_topology {
    std::size_t l1d_bytes = 0;
    std::size_t l2_bytes = 0;
    std::size_t llc_bytes = 0;
    // True when at least one level came from the OS rather than a fallback.
    bool probed = false;
    // The raw probed LLC before the container clamp below (equal to
    // llc_bytes on bare metal); kept so a clamp stays visible in logs.
    std::size_t raw_llc_bytes = 0;
    // True when llc_bytes was reduced below the raw probe. Containers make
    // the raw value a lie twice over: sysfs reports the host's whole shared
    // LLC even when the cgroup holds one vCPU of it (a 1-vCPU CI runner
    // "sees" a 260 MiB server LLC), and a cgroup memory limit can be smaller
    // than the LLC itself, where an LLC-sized working set would be OOM-killed
    // long before it became cache-resident. llc_bytes is clamped to the
    // per-core share and to half the cgroup memory limit, floored at l2.
    bool llc_clamped = false;
};

// Fallbacks applied per level when the host reports nothing: small enough
// to be safe on any machine this code plausibly runs on.
inline constexpr std::size_t kFallback_l1d = 32u * 1024;
inline constexpr std::size_t kFallback_l2 = 1u * 1024 * 1024;
inline constexpr std::size_t kFallback_llc = 32u * 1024 * 1024;

// The host's cache topology, probed once per process (thread-safe; later
// calls return the cached result). Reads
// /sys/devices/system/cpu/cpu0/cache/index*/{level,type,size} first,
// falls back to sysconf(_SC_LEVEL*_CACHE_SIZE) where available, and fills
// any still-unknown level with the constants above. llc_bytes is the
// largest reported level (>= l2_bytes >= l1d_bytes is NOT guaranteed by
// hardware tables, so consumers should not assume monotonicity beyond
// what this struct normalizes: llc >= l2 is enforced).
const Cache_topology& cache_topology();

// "L1d 48 KiB, L2 2 MiB, LLC 260 MiB (probed)" — for bench/CI logs, so
// cross-host ratio drift is diagnosable from the job output alone. A
// clamped LLC renders as "LLC 2 MiB (clamped from 260 MiB) (probed)".
std::string to_string(const Cache_topology& topology);

// --- pure clamp helpers (exported for unit tests) --------------------------------

// Number of cpus in a sysfs cpu-list string ("0-3,8-11" -> 8). 0 on empty
// or malformed input.
int count_cpu_list(const std::string& text);

// The effective LLC budget for this process: the probed size cut down to
// this cgroup's fair share. `sharing_cpus` is how many cpus share the LLC
// per the host topology, `online_cpus` how many this environment actually
// offers; when fewer, the budget shrinks proportionally. A non-zero
// `cgroup_limit_bytes` (container memory limit) further caps the budget at
// half the limit — headroom for everything that is not the tile. The result
// never drops below `l2_bytes` (the engine needs some band to work in) and
// never exceeds `probed_llc`. Zero parameters mean "unknown": no clamp from
// that source.
std::size_t clamp_llc_bytes(std::size_t probed_llc, std::size_t l2_bytes,
                            std::size_t cgroup_limit_bytes, int sharing_cpus,
                            int online_cpus);

}  // namespace islhls
