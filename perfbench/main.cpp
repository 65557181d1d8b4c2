// cepic-perfbench — end-to-end benchmark of the CEPIC toolchain.
//
//   cepic-perfbench --workload compile|simulate|dse-sweep --seed N
//                   --seconds S --trace 0|1 --work-dir DIR
//                   [--trace-out FILE]
//
// One process, one client, closed loop: each operation starts when the
// previous one has returned. With --trace 0 the workload's operations
// are timed in round-robin rounds for S seconds and every end-to-end
// metric is a median over those repetitions. With --trace 1 the run
// instead walks every layer with obs tracing on (layers.cpp), writes a
// Chrome trace to FILE and reports per-layer metrics. The last line of
// standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// README.md maps metrics to layers and workloads.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/static_cycles.hpp"
#include "bench.hpp"
#include "explore/explore.hpp"
#include "layers.hpp"
#include "mcheck/mcheck.hpp"
#include "obs/obs.hpp"
#include "pipeline/pipeline.hpp"
#include "sarm/driver.hpp"
#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "cepic-perfbench: " << why << "\n"
            << "usage: cepic-perfbench --workload compile|simulate|dse-sweep"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload != "compile" && a.workload != "simulate" &&
      a.workload != "dse-sweep") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (a.work_dir.empty()) usage("--work-dir is required");
  if (a.trace && a.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// The static predictor's contract on one observed run: the cycles lie
/// inside its proven bound, and equal the prediction where it is exact.
bool matches_prediction(const cepic::Program& program,
                        const cepic::SimStats& observed) {
  const auto report = cepic::analysis::predict_cycles(program);
  if (!report.within_bound(observed)) return false;
  return !report.exact || report.stats == observed;
}

/// The two timed end-to-end metrics from each item's median seconds per
/// operation: operations per second over one round of the items, and
/// the geometric mean of the per-item medians; both scaled to the
/// nominal host speed (Timing::host_scale).
void add_time_metrics(const std::vector<double>& medians, double host_scale,
                      Outcome& out) {
  double round_s = 0;
  std::vector<double> per_item_ms;
  for (const double m : medians) {
    round_s += m;
    per_item_ms.push_back(m * 1e3);
  }
  out.add("ops_per_s",
          static_cast<double>(medians.size()) / round_s * host_scale, "1/s");
  out.add("op_ms_geomean", geomean(per_item_ms) / host_scale, "ms");
}

/// A workload: set-up builds its inputs; `timer` times its operations;
/// `finish` runs the untimed checks and adds the end-to-end metrics;
/// `round` runs one untimed round of its operations (for the traced
/// run's overhead figure).
struct Workload {
  virtual ~Workload() = default;
  virtual void setup(Outcome& out) = 0;
  virtual std::size_t items() const = 0;
  virtual std::string name(std::size_t i) const = 0;
  virtual RoundTimer timer(Outcome& out) = 0;
  virtual void finish(const Timing& timing, Outcome& out) = 0;
  virtual void round(const std::string& store_dir) = 0;
};

// ---- compile ---------------------------------------------------------

/// Cold MiniC -> Program compiles through pipeline::compile_once (a fresh
/// memory-only Service each), 1 and 4 ALUs, over the Table 1 paper
/// programs plus the seeded generated corpus. No simulation is timed.
class CompileWorkload final : public Workload {
public:
  explicit CompileWorkload(std::uint64_t seed) : seed_(seed) {}

  void setup(Outcome& out) override {
    sources_ = paper_sources(false);
    check_goldens(sources_, out);
    for (Source& s : generated_sources(seed_, nullptr)) {
      sources_.push_back(std::move(s));
    }
    configs_ = {epic_config(1), epic_config(4)};
    programs_.assign(items(), {});
    bundles_.assign(items(), 0);
  }

  std::size_t items() const override {
    return sources_.size() * configs_.size();
  }

  RoundTimer timer(Outcome& out) override {
    RoundTimer t;
    t.run = [this](std::size_t i) {
      programs_[i] = cepic::pipeline::compile_once(source(i).minic,
                                                   config(i))
                         .program;
    };
    t.verify = [this, &out](std::size_t i) {
      const std::size_t bundles = programs_[i].bundle_count();
      if (bundles_[i] == 0) bundles_[i] = bundles;
      out.check(bundles == bundles_[i],
                name(i) + ": bundle count differs between repetitions");
    };
    return t;
  }

  void finish(const Timing& timing, Outcome& out) override {
    std::vector<double> paper_cycles;
    double paper_bundles = 0;
    for (std::size_t i = 0; i < items(); ++i) {
      const cepic::Program& program = programs_[i];
      out.check(cepic::mcheck::check_program(program).clean(),
                name(i) + ": mcheck reports errors");
      cepic::EpicSimulator sim(program);
      const cepic::SimStats stats = sim.run();
      out.check(sim.output() == source(i).expected,
                name(i) + ": EPIC output differs from " +
                    (source(i).paper ? "the native golden"
                                     : "the IR interpreter"));
      out.check(matches_prediction(program, stats),
                name(i) + ": cycles outside the static prediction");
      if (source(i).paper) {
        paper_cycles.push_back(static_cast<double>(stats.cycles));
        paper_bundles += static_cast<double>(program.bundle_count());
        std::cout << "cycles " << name(i) << ": " << stats.cycles << " ("
                  << program.bundle_count() << " bundles)\n";
      }
    }
    add_time_metrics(timing.medians, timing.host_scale(), out);
    out.add("epic_cycles_geomean", geomean(paper_cycles), "cycles");
    out.add("code_bundles_total", paper_bundles, "bundles");
  }

  void round(const std::string&) override {
    for (std::size_t i = 0; i < items(); ++i) {
      cepic::pipeline::compile_once(source(i).minic, config(i));
    }
  }

private:
  const Source& source(std::size_t i) const {
    return sources_[i / configs_.size()];
  }
  const cepic::ProcessorConfig& config(std::size_t i) const {
    return configs_[i % configs_.size()];
  }
  std::string name(std::size_t i) const override {
    return source(i).name + "/" + std::to_string(config(i).num_alus) + "alu";
  }

  std::uint64_t seed_;
  std::vector<Source> sources_;
  std::vector<cepic::ProcessorConfig> configs_;
  std::vector<cepic::Program> programs_;
  std::vector<std::size_t> bundles_;
};

// ---- simulate --------------------------------------------------------

/// The paper programs at the paper's sizes, compiled once in set-up for
/// a 4-ALU EPIC and for the SA-110; each operation constructs a fresh
/// simulator (default, threaded tier for EPIC) and runs it to HALT.
/// Items 0..3 are EPIC, 4..7 the SA-110.
class SimulateWorkload final : public Workload {
public:
  void setup(Outcome& out) override {
    sources_ = paper_sources(true);
    check_goldens(sources_, out);
    epic_.clear();
    sarm_.clear();
    for (const Source& s : sources_) {
      epic_.push_back(
          cepic::pipeline::compile_once(s.minic, epic_config(4)).program);
      sarm_.push_back(cepic::sarm::compile_minic_to_sarm(s.minic));
    }
    outputs_.assign(items(), {});
    cycles_.assign(items(), 0);
    first_cycles_.assign(items(), 0);
    epic_stats_.assign(sources_.size(), {});
  }

  std::size_t items() const override { return 2 * sources_.size(); }
  std::string name(std::size_t i) const override {
    return sources_[i % sources_.size()].name +
           (i < sources_.size() ? "/epic4" : "/sa110");
  }

  RoundTimer timer(Outcome& out) override {
    RoundTimer t;
    t.run = [this](std::size_t i) { simulate(i); };
    t.verify = [this, &out](std::size_t i) {
      const Source& s = sources_[i % sources_.size()];
      const std::string target = i < sources_.size() ? "EPIC" : "SA-110";
      out.check(outputs_[i] == s.expected,
                s.name + ": " + target + " output differs from the golden");
      if (first_cycles_[i] == 0) first_cycles_[i] = cycles_[i];
      out.check(cycles_[i] == first_cycles_[i],
                s.name + ": " + target + " cycles differ between runs");
    };
    return t;
  }

  void finish(const Timing& timing, Outcome& out) override {
    std::vector<double> cycles;
    double bundles = 0;
    for (std::size_t w = 0; w < sources_.size(); ++w) {
      out.check(cepic::mcheck::check_program(epic_[w]).clean(),
                sources_[w].name + ": mcheck reports errors");
      out.check(matches_prediction(epic_[w], epic_stats_[w]),
                sources_[w].name + ": cycles outside the static prediction");
      cycles.push_back(static_cast<double>(first_cycles_[w]));
      bundles += static_cast<double>(epic_[w].bundle_count());
      const std::uint64_t sarm_cycles = first_cycles_[w + sources_.size()];
      std::cout << "cycles " << sources_[w].name << ": SA-110 " << sarm_cycles
                << ", EPIC 4 ALUs " << first_cycles_[w] << ", ratio "
                << static_cast<double>(sarm_cycles) /
                       static_cast<double>(first_cycles_[w])
                << "\n";
    }
    add_time_metrics(timing.medians, timing.host_scale(), out);
    out.add("epic_cycles_geomean", geomean(cycles), "cycles");
    out.add("code_bundles_total", bundles, "bundles");
  }

  void round(const std::string&) override {
    for (std::size_t i = 0; i < items(); ++i) simulate(i);
  }

private:
  void simulate(std::size_t i) {
    const std::size_t w = i % sources_.size();
    if (i < sources_.size()) {
      cepic::EpicSimulator sim(epic_[w]);
      cycles_[i] = sim.run().cycles;
      epic_stats_[w] = sim.stats();
      outputs_[i] = sim.output();
    } else {
      cepic::sarm::SarmSimulator sim(sarm_[w]);
      cycles_[i] = sim.run().cycles;
      outputs_[i] = sim.output();
    }
  }

  std::vector<Source> sources_;
  std::vector<cepic::Program> epic_;
  std::vector<cepic::sarm::SProgram> sarm_;
  std::vector<std::vector<std::uint32_t>> outputs_;
  std::vector<std::uint64_t> cycles_;
  std::vector<std::uint64_t> first_cycles_;
  std::vector<cepic::SimStats> epic_stats_;
};

// ---- dse-sweep -------------------------------------------------------

/// One explore::run_sweep_batch over the Table 1 paper programs and the
/// 32-point grid with two workers. Item 0 is a cold pass into an empty
/// store; item 1 a warm pass against the latest cold store with a fresh,
/// never-binding max_cycles, so every artifact is decoded from the store
/// and no simulation result is replayed.
class SweepWorkload final : public Workload {
public:
  explicit SweepWorkload(std::string work_dir)
      : work_dir_(std::move(work_dir)) {}

  void setup(Outcome& out) override {
    sources_.clear();
    golden_.clear();
    std::vector<Source> paper = paper_sources(false);
    check_goldens(paper, out);
    for (Source& s : paper) {
      golden_.push_back(cepic::explore::hash_output(s.expected));
      sources_.push_back(std::move(s.minic));
    }
    spec_ = sweep_spec();
  }

  std::size_t items() const override { return 2; }
  std::string name(std::size_t i) const override {
    return i == 0 ? "cold-pass" : "warm-pass";
  }

  RoundTimer timer(Outcome& out) override {
    RoundTimer t;
    t.prepare = [this](std::size_t i) {
      if (i == 0) {
        if (!cold_dir_.empty()) fs::remove_all(cold_dir_);
        cold_dir_ = work_dir_ + "/cold-" + std::to_string(cold_passes_++);
        fs::remove_all(cold_dir_);
      }
    };
    t.run = [this](std::size_t i) {
      batch_ = i == 0 ? sweep(cold_dir_, kNeverBinds)
                      : sweep(cold_dir_, kNeverBinds - ++warm_passes_);
    };
    t.verify = [this, &out](std::size_t i) {
      if (i == 0) {
        verify_cold(out);
      } else {
        verify_warm(out);
      }
    };
    return t;
  }

  void finish(const Timing& timing, Outcome& out) override {
    std::vector<double> cycles;
    for (const auto& sweep : reference_->sweeps) {
      for (const auto& p : sweep.points) {
        cycles.push_back(static_cast<double>(p.cycles));
      }
    }
    // Static code size of the distinct programs the sweep compiled,
    // served from the last cold store (no recompilation).
    cepic::pipeline::Options options;
    options.store_dir = cold_dir_;
    cepic::pipeline::Service service(options);
    std::vector<cepic::ProcessorConfig> slices;
    double bundles = 0;
    for (const auto& point : spec_.points) {
      const auto slice = cepic::pipeline::Service::codegen_slice(point);
      if (std::find(slices.begin(), slices.end(), slice) != slices.end()) {
        continue;
      }
      slices.push_back(slice);
      for (const std::string& src : sources_) {
        bundles += static_cast<double>(
            service.compile_program(src, slice).bundle_count());
      }
    }
    out.check(service.stats().compiles() == 0,
              "dse-sweep: the filled store did not serve every program");
    fs::remove_all(cold_dir_);

    const double points = static_cast<double>(cycles.size());
    add_time_metrics({timing.medians[0] / points, timing.medians[1] / points},
                     timing.host_scale(), out);
    out.add("epic_cycles_geomean", geomean(cycles), "cycles");
    out.add("code_bundles_total", bundles, "bundles");
  }

  void round(const std::string& store_dir) override {
    sweep(store_dir, kNeverBinds - ++warm_passes_);
  }

private:
  /// Far above any run here (the largest takes ~5M cycles); each warm
  /// pass subtracts its index so its result-cache keys are new.
  static constexpr std::uint64_t kNeverBinds = 1'000'000'000;

  cepic::explore::SweepBatch sweep(const std::string& store,
                                   std::uint64_t max_cycles) const {
    cepic::explore::ExploreOptions options;
    options.jobs = 2;
    options.store_dir = store;
    options.sim.max_cycles = max_cycles;
    return cepic::explore::run_sweep_batch(sources_, spec_, options);
  }

  void verify_cold(Outcome& out) {
    bool golden = batch_.sweeps.size() == sources_.size();
    for (std::size_t w = 0; golden && w < sources_.size(); ++w) {
      for (const auto& p : batch_.sweeps[w].points) {
        golden = golden && p.ok && p.output_hash == golden_[w];
      }
    }
    out.check(golden, "dse-sweep: a cold point failed or missed its golden");
    if (!reference_) {
      reference_ = std::make_unique<cepic::explore::SweepBatch>(batch_);
      return;
    }
    out.check(same_outcomes(batch_, *reference_) &&
                  batch_.stats.compiles() == reference_->stats.compiles(),
              "dse-sweep: cold passes differ");
  }

  void verify_warm(Outcome& out) {
    out.check(batch_.stats.compiles() == 0,
              "dse-sweep: a warm pass recompiled");
    out.check(batch_.stats.result_hits == 0,
              "dse-sweep: a warm pass replayed a cached result");
    out.check(same_outcomes(batch_, *reference_),
              "dse-sweep: warm outcomes differ from cold");
  }

  static bool same_outcomes(const cepic::explore::SweepBatch& a,
                            const cepic::explore::SweepBatch& b) {
    if (a.sweeps.size() != b.sweeps.size()) return false;
    for (std::size_t w = 0; w < a.sweeps.size(); ++w) {
      const auto& pa = a.sweeps[w].points;
      const auto& pb = b.sweeps[w].points;
      if (pa.size() != pb.size()) return false;
      for (std::size_t i = 0; i < pa.size(); ++i) {
        if (pa[i].ok != pb[i].ok || pa[i].cycles != pb[i].cycles ||
            pa[i].ops_committed != pb[i].ops_committed ||
            pa[i].output_words != pb[i].output_words ||
            pa[i].output_hash != pb[i].output_hash || pa[i].ret != pb[i].ret) {
          return false;
        }
      }
    }
    return true;
  }

  std::string work_dir_;
  std::vector<std::string> sources_;
  std::vector<std::uint64_t> golden_;
  cepic::explore::SweepSpec spec_;
  std::string cold_dir_;
  std::size_t cold_passes_ = 0;
  std::uint64_t warm_passes_ = 0;
  cepic::explore::SweepBatch batch_;
  std::unique_ptr<cepic::explore::SweepBatch> reference_;
};

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "compile") return std::make_unique<CompileWorkload>(a.seed);
  if (a.workload == "simulate") return std::make_unique<SimulateWorkload>();
  return std::make_unique<SweepWorkload>(a.work_dir);
}

void print_result(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (i != 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const double t_main = now_s();
  const Args args = parse_args(argc, argv);
  Outcome out;
  try {
    fs::create_directories(args.work_dir);
    const std::unique_ptr<Workload> workload = make_workload(args);

    // Set-up runs three times and reports the median, the first timing
    // starting at main(); only the last set-up's inputs are kept.
    std::vector<double> setups;
    double t0 = t_main;
    for (int i = 0; i < 3; ++i) {
      workload->setup(out);
      const double t1 = now_s();
      setups.push_back(t1 - t0);
      t0 = t1;
    }

    if (!args.trace) {
      const Timing timing =
          workload->timer(out).time(workload->items(), args.seconds, out);
      workload->finish(timing, out);
      std::cout << timing.rounds << " rounds of " << workload->items()
                << " items; probe median " << timing.probe_s * 1e3
                << " ms, host scale " << timing.host_scale()
                << "; unscaled medians:\n";
      for (std::size_t i = 0; i < timing.medians.size(); ++i) {
        std::cout << "  " << workload->name(i) << ": "
                  << timing.medians[i] * 1e3 << " ms\n";
      }
      std::cout << "  set-up: " << median(setups) << " s\n";
      out.add("setup_s", median(setups) / timing.host_scale(), "s");
      out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    } else {
      const std::string store = layer_walk(args.seed, args.work_dir, out);
      // Tracing overhead: the workload's own round, alternately traced
      // and untraced.
      std::vector<double> traced, untraced;
      for (int pair = 0; pair < 2; ++pair) {
        for (const bool on : {false, true}) {
          cepic::obs::set_enabled(on);
          const double r0 = now_s();
          workload->round(store);
          (on ? traced : untraced).push_back(now_s() - r0);
        }
      }
      cepic::obs::set_enabled(false);
      out.add("obs.traced_over_untraced", median(traced) / median(untraced),
              "ratio");
      cepic::obs::write_trace_json(args.trace_out);
      fs::remove_all(store);
      for (const Metric& m : out.metrics) {
        std::cout << "layer " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "cepic-perfbench: " << e.what() << "\n";
    return 1;
  }
  print_result(out);
  return 0;
}
