// Shared pieces of cepic-perfbench: inputs, result bookkeeping and the
// round-robin median timer. See README.md for what each workload
// measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "explore/sweep.hpp"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Operations attempted and failed, and whether every check held.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// One check is one operation; a failed check is a failed operation.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// One MiniC input with the output stream it must produce. `paper` marks
/// the four workloads of the paper (outputs from native goldens); the
/// generated programs take theirs from the IR interpreter.
struct Source {
  std::string name;
  std::string minic;
  std::vector<std::uint32_t> expected;
  bool paper = false;
};

/// The four paper programs. Table 1 sizes (SHA 64x64, AES x100, DCT
/// 64x64, Dijkstra 32 nodes) or the paper's own sizes (SHA 256x256,
/// AES x1000, DCT 256x256, Dijkstra 64 nodes).
std::vector<Source> paper_sources(bool paper_sizes);

/// Check each paper program's native golden against ir::Interpreter on
/// its unoptimised IR, one check per program. Adds the interpreter's
/// time to `interp_s` when given.
void check_goldens(const std::vector<Source>& sources, Outcome& out,
                   double* interp_s = nullptr);

/// Seeded generated programs, one per graded region size, each with
/// its expected output from ir::Interpreter on the unoptimised IR.
/// Candidates that fault or do not halt in the interpreter are skipped.
/// `interp_s` accumulates the interpreter's time.
std::vector<Source> generated_sources(std::uint64_t seed, double* interp_s);

/// EPIC configuration with `alus` ALUs and every other field default.
cepic::ProcessorConfig epic_config(unsigned alus);

/// The dse-sweep grid: codegen axes alus=1..4 and forwarding=0..1 times
/// simulation-only axes stages=2..3 and contention=0..1 (32 points).
cepic::explore::SweepSpec sweep_spec();

/// Seconds one fixed host-speed probe takes: a few milliseconds of
/// integer, branch and memory work that does not touch the toolchain.
double probe_s();

/// The probe's time on the host the bounds in BENCHMARK.json were set
/// on (a 4-vCPU KVM guest, where it took 4.1-5.4 ms). Timed metrics are
/// reported scaled to a host on which the probe takes exactly this long.
inline constexpr double kProbeNominalS = 0.005;

struct Timing {
  std::vector<double> medians;  ///< per item, seconds per operation
  double probe_s = 0;           ///< median probe time over the run
  std::size_t rounds = 0;

  /// How much slower than nominal the host ran during this run: timed
  /// metrics are divided by it (rates multiplied).
  double host_scale() const { return probe_s / kProbeNominalS; }
};

/// Times `run(i)` for items i = 0..n-1 in whole round-robin rounds until
/// `seconds` have passed since the first round began, and returns each
/// item's median seconds per operation. `prepare(i)` and `verify(i)`
/// run outside the timed interval, before and after each sample. An
/// item whose single operation takes under 10 ms is repeated within one
/// sample until the sample lasts about 10 ms; its first, single-shot
/// sample only sets that count. After each sample, outside the timed
/// interval, the host-speed probe runs once per 100 ms of sample (at
/// least once, at most ten times), so the probe sees the same host
/// phases as the operations. Every operation counts as attempted; an
/// exception from run() counts as failed and drops that sample.
struct RoundTimer {
  std::function<void(std::size_t)> prepare = [](std::size_t) {};
  std::function<void(std::size_t)> run;
  std::function<void(std::size_t)> verify = [](std::size_t) {};

  Timing time(std::size_t n, double seconds, Outcome& out) const;
};

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

}  // namespace perfbench
