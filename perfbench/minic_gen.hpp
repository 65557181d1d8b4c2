// Seeded generator of MiniC programs for the compile workload.
//
// Each program has global arrays filled by a PRNG loop, a helper
// function with a loop and a guarded statement, and a main loop whose
// body is one long straight-line region: arithmetic on loop-carried
// locals, array loads and stores, and guarded assignments that the
// optimiser if-converts into predicated code. The region's length is
// the knob: `block_stmts` statements give roughly four optimised IR
// instructions each, so graded sizes show how the scheduler scales.
//
// Every program ends by emitting its locals and an array checksum with
// out(), so all of the region stays live through dead-code elimination.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// MiniC source of one generated program. The same (seed, block_stmts)
/// always gives the same text.
std::string generate_minic(std::uint64_t seed, int block_stmts);

}  // namespace perfbench
