// The traced run: one pass over every layer of the toolchain with obs
// tracing on, timing the calls into each module's public functions from
// the benchmark's own code (spans in category "perfbench").
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace perfbench {

/// Walk the layers over the Table 1 paper programs and the generated
/// corpus of `seed`, checking each stage's output against its
/// reference, and add one per-layer metric per figure to `out`. Leaves
/// tracing on. Returns the store directory of its sweep (filled by a
/// cold pass), which the caller removes.
std::string layer_walk(std::uint64_t seed, const std::string& work_dir,
                       Outcome& out);

}  // namespace perfbench
