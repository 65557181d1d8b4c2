// Tool/build version identity for every persistent artifact the
// pipeline writes. The content-addressed store scopes all on-disk
// artifacts and simulation results under a directory named by
// store_version_tag(), so artifacts produced by an older toolchain —
// whose instruction encoding, CEPX container, scheduler or optimiser
// may differ — can never be replayed by a newer build: a version bump
// simply makes the old subtree unreachable.
//
// Bump kPipelineSchema whenever any of the following changes in a way
// that affects produced artifacts:
//   * the instruction encoding or the CEPX serialisation format,
//   * the assembly syntax the backend emits,
//   * the optimiser or scheduler output for a fixed input,
//   * the store key derivation in src/pipeline/pipeline.cpp.
#pragma once

#include <string>
#include <string_view>

namespace cepic::pipeline {

/// Monotonically increasing artifact-schema generation.
/// 2: artifacts are CEPX v2 sectioned containers (IR Modules persist as
/// packed binaries, not text) and versioned directories carry a
/// `format` marker — v1 streamed blobs must be unreachable.
inline constexpr unsigned kPipelineSchema = 2;

/// Human-readable toolchain identity folded into store paths and keys.
/// result-store: simulation results live in the store as one kResult
/// blob per batch item under `result/`, replacing the single rewritten
/// results file of the cepic-pr8 layout.
inline constexpr std::string_view kToolVersion = "cepic-result-store";

/// Directory component under the store root that namespaces all
/// artifacts of this build, e.g. "v1-cepic-pr3".
inline std::string store_version_tag() {
  return "v" + std::to_string(kPipelineSchema) + "-" +
         std::string(kToolVersion);
}

}  // namespace cepic::pipeline
