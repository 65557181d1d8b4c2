#include "bench.hpp"

#include <algorithm>
#include <cmath>

#include "frontend/irgen.hpp"
#include "ir/interp.hpp"
#include "minic_gen.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

std::vector<Source> paper_sources(bool paper_sizes) {
  const auto all = paper_sizes
                       ? cepic::workloads::all_workloads(256, 1000, 256, 64)
                       : cepic::workloads::all_workloads(64, 100, 64, 32);
  std::vector<Source> out;
  for (const auto& w : all) {
    out.push_back({w.name, w.minic_source, w.expected_output, true});
  }
  return out;
}

void check_goldens(const std::vector<Source>& sources, Outcome& out,
                   double* interp_s) {
  for (const Source& s : sources) {
    if (!s.paper) continue;
    const double t0 = now_s();
    const cepic::ir::Module module = cepic::minic::compile_to_ir(s.minic);
    cepic::ir::Interpreter interp(module);
    const bool same = interp.run().output == s.expected;
    if (interp_s != nullptr) *interp_s += now_s() - t0;
    out.check(same, s.name + ": native golden differs from the IR interpreter");
  }
}

std::vector<Source> generated_sources(std::uint64_t seed, double* interp_s) {
  // Region statements per program: about 4 optimised IR instructions
  // each, so the main loop's straight-line block grades from ~64 to
  // ~2000 instructions.
  static constexpr int kRegionStmts[] = {16, 32, 64, 128, 256, 512};
  cepic::ir::InterpOptions interp_options;
  interp_options.max_steps = 20'000'000;
  std::vector<Source> out;
  for (const int stmts : kRegionStmts) {
    bool found = false;
    for (std::uint64_t attempt = 0; attempt < 16 && !found; ++attempt) {
      const std::uint64_t candidate = seed * 1000003u + attempt;
      std::string minic = generate_minic(candidate, stmts);
      const double t0 = now_s();
      try {
        const cepic::ir::Module module = cepic::minic::compile_to_ir(minic);
        cepic::ir::Interpreter interp(module, interp_options);
        const cepic::ir::InterpResult result = interp.run();
        out.push_back({"gen" + std::to_string(stmts), std::move(minic),
                       result.output, false});
        found = true;
      } catch (const cepic::Error&) {
        // Faults and runaway loops reject the candidate here, at
        // generation; the next attempt draws another program.
      }
      if (interp_s != nullptr) *interp_s += now_s() - t0;
    }
    if (!found) {
      throw cepic::Error("no generated program of " + std::to_string(stmts) +
                         " statements ran to completion in the interpreter");
    }
  }
  return out;
}

cepic::ProcessorConfig epic_config(unsigned alus) {
  cepic::ProcessorConfig config;
  config.num_alus = alus;
  return config;
}

cepic::explore::SweepSpec sweep_spec() {
  auto spec = cepic::explore::SweepSpec::from_grid(
      "alus=1..4,forwarding=0..1,stages=2..3,contention=0..1");
  spec.filter_invalid();
  return spec;
}

namespace {
/// Keeps the probe's result observable so its work is not optimised out.
volatile std::uint32_t probe_sink = 0;
}  // namespace

double probe_s() {
  // Reused between calls so the probe measures no allocation.
  static std::vector<std::uint32_t> words(1 << 16);
  const double t0 = now_s();
  std::uint32_t x = 7;
  for (std::uint32_t& w : words) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    w = x;
  }
  std::uint32_t idx = 0, acc = 0;
  for (int i = 0; i < 400000; ++i) {
    idx = words[idx & 0xFFFF] ^ (idx >> 3);
    if (idx & 1) {
      acc += idx;
    } else {
      acc ^= idx << 1;
    }
  }
  std::sort(words.begin(), words.begin() + 16384);
  probe_sink = acc + words[5];
  return now_s() - t0;
}

Timing RoundTimer::time(std::size_t n, double seconds, Outcome& out) const {
  constexpr double kMinSample = 0.010;
  std::vector<std::vector<double>> samples(n);
  std::vector<double> probes;
  std::vector<unsigned> reps(n, 1);
  const double start = now_s();
  std::size_t round = 0;
  for (; round == 0 || now_s() - start < seconds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      prepare(i);
      bool ok = true;
      const double t0 = now_s();
      for (unsigned r = 0; r < reps[i]; ++r) {
        ++out.attempted;
        try {
          run(i);
        } catch (const std::exception& e) {
          ++out.failed;
          ok = false;
          std::cerr << "perfbench: operation failed: " << e.what() << "\n";
        }
      }
      const double elapsed = now_s() - t0;
      verify(i);
      if (!ok) continue;
      const double per_op = elapsed / reps[i];
      if (round == 0 && per_op < kMinSample) {
        reps[i] = static_cast<unsigned>(std::ceil(kMinSample / per_op));
        continue;
      }
      samples[i].push_back(per_op);
      const int probes_due = std::clamp(static_cast<int>(elapsed / 0.1), 1, 10);
      for (int p = 0; p < probes_due; ++p) probes.push_back(probe_s());
    }
  }
  Timing timing;
  timing.rounds = round;
  timing.probe_s = median(probes);
  for (std::size_t i = 0; i < n; ++i) {
    if (samples[i].empty()) {
      throw cepic::Error("perfbench: item " + std::to_string(i) +
                         " produced no timing sample");
    }
    timing.medians.push_back(median(samples[i]));
  }
  return timing;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace perfbench
