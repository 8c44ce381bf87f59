// Serialization of cached sweep payloads + content-addressed cache keys.
//
// The sweep service persists three payload types in the result cache:
// per-combination Sweep_entry records, per-kernel format-search grids, and
// individual virtual-synthesis reports. Each payload type is described by
// one field list that a generic writer and a generic strict reader both walk
// (schema v4 for entries and grids): one `name value` line per field, one
// line per Pareto point or grid cell, doubles as their 16-hex-digit
// IEEE-754 bit pattern. Every value has a single canonical text form, so
// parse(serialize(x)) reproduces every field bit for bit and
// serialize(parse(s)) == s for any s a parser accepts. Parsers validate the
// full line structure and report failure instead of throwing, so a record
// that decodes structurally (cache checksum OK) but not semantically
// (schema drift) degrades to a recompute, never an abort.
//
// Cache keys are content-addressed: every key starts from the kernel's IR
// identity (state-field update expressions as s-exprs over the shared pool,
// const fields, boundary policy) and appends every option that affects the
// cached result — never thread counts, which are result-invariant by the
// DSE's determinism contract. Changing any result-affecting input therefore
// changes the key; schema changes bump the leading version token instead of
// reinterpreting old payloads.
#pragma once

#include <string>
#include <string_view>

#include "core/sweep.hpp"
#include "dse/results.hpp"
#include "kernels/kernels.hpp"
#include "symexec/stencil_step.hpp"
#include "synth/synthesizer.hpp"

namespace islhls {

// --- exact payload serializers ---------------------------------------------------
std::string serialize_record(const Sweep_entry& entry);
bool parse_record(const std::string& text, Sweep_entry* entry,
                  std::string* error);

std::string serialize_record(const Format_grid& grid);
bool parse_record(const std::string& text, Format_grid* grid, std::string* error);

std::string serialize_record(const Synthesis_report& report);
bool parse_record(const std::string& text, Synthesis_report* report,
                  std::string* error);

// Writer-only records of in-memory exploration results, in the same canonical
// text (doubles as bit patterns, so -0.0 and NaN payloads are told apart).
// Tests and benches compare them byte for byte across thread counts and
// recomputations; they are never persisted, so they have no parser.
std::string serialize_record(const Arch_evaluation& eval);
std::string serialize_record(const Pareto_result& result);
std::string serialize_record(const Fit_result& result);
std::string serialize_record(const Area_validation& validation);

// --- cache keys ------------------------------------------------------------------
// The kernel's IR identity: name, boundary, const fields and one s-expr per
// state-field update. This is the part of every cache key that pins *what*
// was compiled, independent of any exploration option.
std::string kernel_ir_key(const std::string& kernel_name, Boundary boundary,
                          const Stencil_step& step);

// Key of one sweep combination's Sweep_entry (device, iteration count and
// backend vary per combination; everything else comes from the config). The
// backend is part of the key, so a warm cache never serves one backend's
// entries to a request for another.
std::string sweep_entry_key(const std::string& ir_key, const Sweep_config& config,
                            const std::string& device, int iterations,
                            const std::string& backend);

// Key of one kernel's format-search grid. N-independent, but the grid's
// per-format cell evaluations are priced on a device against the modeled
// frame and throughput parameters, so those are part of the key.
std::string format_grid_key(const std::string& ir_key, const Sweep_config& config,
                            const std::string& device);

// Key prefix for this kernel's virtual-synthesis reports; Cone_library
// appends "window/depth/device/options" per synthesis.
std::string synthesis_key_prefix(const std::string& ir_key);

// Dedup key of a whole request for the batch front-end: two requests with
// equal keys produce byte-identical reports, so the queue runs one of them.
std::string sweep_request_key(const Sweep_config& config);

// Exact double <-> 16-hex-digit bit-pattern helpers (shared with tests).
std::string encode_double_bits(double value);
bool decode_double_bits(std::string_view text, double* value);

}  // namespace islhls
