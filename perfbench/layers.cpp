#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string_view>
#include <vector>

#include "asmtool/assembler.hpp"
#include "backend/backend.hpp"
#include "core/custom.hpp"
#include "explore/explore.hpp"
#include "frontend/irgen.hpp"
#include "ir/ir.hpp"
#include "mdes/mdes.hpp"
#include "obs/obs.hpp"
#include "opt/opt.hpp"
#include "pipeline/pipeline.hpp"
#include "sarm/driver.hpp"
#include "serial/serial.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

namespace {

/// Run `f` inside a span named `name`, adding its wall time in ms to
/// `acc_ms`.
template <class F>
decltype(auto) timed(double& acc_ms, std::string_view name, F&& f) {
  cepic::obs::Span span(name, "perfbench");
  struct Accumulate {
    double& acc;
    double t0;
    ~Accumulate() { acc += (now_s() - t0) * 1e3; }
  } accumulate{acc_ms, now_s()};
  return f();
}

std::size_t ir_insts(const cepic::ir::Module& module) {
  std::size_t n = 0;
  for (const auto& fn : module.functions) {
    for (const auto& block : fn.blocks) n += block.insts.size();
  }
  return n;
}

struct Times {
  double generate = 0, interp = 0, frontend = 0, opt = 0, lower = 0,
         regalloc = 0, schedule = 0, emit = 0, assemble = 0, compile_once = 0,
         encode = 0, decode = 0, construct = 0, sarm_compile = 0, sarm_sim = 0,
         cold = 0, warm = 0, replay = 0;
  double tier[3] = {0, 0, 0};  // indexed by cepic::ExecTier
};

}  // namespace

std::string layer_walk(std::uint64_t seed, const std::string& work_dir,
                       Outcome& out) {
  namespace fs = std::filesystem;
  cepic::obs::set_enabled(true);
  Times ms;

  // workloads + ir: the inputs and the interpreter's reference outputs.
  std::vector<Source> sources = timed(ms.generate, "workloads.generate",
                                      [] { return paper_sources(false); });
  double interp_s = 0;
  const double gen_t0 = now_s();
  std::vector<Source> generated;
  {
    cepic::obs::Span span("workloads.generate_minic", "perfbench");
    generated = generated_sources(seed, &interp_s);
  }
  ms.generate += (now_s() - gen_t0 - interp_s) * 1e3;
  check_goldens(sources, out, &interp_s);
  ms.interp = interp_s * 1e3;
  for (Source& s : generated) sources.push_back(std::move(s));

  // frontend -> opt -> backend stages -> asmtool, 1 and 4 ALUs, checked
  // against backend::compile_ir_to_asm and pipeline::compile_once. The
  // whole walk runs kCompilePasses times and each stage reports its
  // median pass, as one DCT compile alone varies by tens of percent.
  constexpr int kCompilePasses = 3;
  std::size_t frontend_insts = 0, opt_insts = 0, max_block = 0;
  std::vector<cepic::Program> programs;        // every compiled Program
  std::vector<cepic::Program> epic4_paper;     // 4 ALUs, paper programs
  const cepic::backend::BackendOptions backend_options;
  std::vector<Times> compile_passes(kCompilePasses);
  for (int pass = 0; pass < kCompilePasses; ++pass) {
    Times& t = compile_passes[pass];
    const bool first = pass == 0;
    for (const Source& src : sources) {
      for (const unsigned alus : {1u, 4u}) {
        const cepic::ProcessorConfig config =
            cepic::pipeline::Service::codegen_slice(epic_config(alus));
        cepic::ir::Module module =
            timed(t.frontend, "frontend.compile_to_ir",
                  [&] { return cepic::minic::compile_to_ir(src.minic); });
        if (first && alus == 1) frontend_insts += ir_insts(module);
        timed(t.opt, "opt.optimize", [&] { cepic::opt::optimize(module); });
        if (first && alus == 1) opt_insts += ir_insts(module);

        const cepic::ir::DataLayout layout = cepic::ir::layout_globals(module);
        const cepic::CustomOpTable custom =
            cepic::CustomOpTable::for_names(config.custom_ops);
        const cepic::Mdes mdes(config, &custom);
        std::vector<cepic::backend::ScheduledFunc> scheduled;
        std::size_t largest_block = 0;
        for (const cepic::ir::Function& fn : module.functions) {
          cepic::backend::MFunc mf =
              timed(t.lower, "backend.lower_function", [&] {
                return cepic::backend::lower_function(fn, module, layout, mdes,
                                                      config);
              });
          timed(t.regalloc, "backend.allocate_registers",
                [&] { cepic::backend::allocate_registers(mf, config); });
          for (const auto& block : mf.blocks) {
            largest_block = std::max(largest_block, block.insts.size());
          }
          scheduled.push_back(
              timed(t.schedule, "backend.schedule_function", [&] {
                return cepic::backend::schedule_function(
                    mf, mdes, config, backend_options.schedule,
                    backend_options.test_override_port_budget);
              }));
        }
        max_block = std::max(max_block, largest_block);
        if (first && alus == 1) {
          std::cout << "largest block of " << src.name << ": "
                    << largest_block << " insts\n";
        }
        const std::string asm_text =
            timed(t.emit, "backend.emit_module_asm", [&] {
              return cepic::backend::emit_module_asm(scheduled, module, config,
                                                     backend_options);
            });
        if (first) {
          out.check(asm_text == cepic::backend::compile_ir_to_asm(
                                    module, config, backend_options),
                    src.name + ": staged backend output differs from "
                               "compile_ir_to_asm");
        }
        cepic::Program program =
            timed(t.assemble, "asmtool.assemble",
                  [&] { return cepic::asmtool::assemble(asm_text, config); });

        const cepic::Program whole =
            timed(t.compile_once, "pipeline.compile_once", [&] {
              return cepic::pipeline::compile_once(src.minic, epic_config(alus))
                  .program;
            });
        if (!first) continue;
        out.check(cepic::serial::encode_program(whole) ==
                      cepic::serial::encode_program(program),
                  src.name + ": staged Program differs from compile_once");
        if (src.paper && alus == 4) epic4_paper.push_back(program);
        programs.push_back(std::move(program));
      }
    }
  }
  const auto median_pass = [&](double Times::*field) {
    std::vector<double> v;
    for (const Times& t : compile_passes) v.push_back(t.*field);
    return median(v);
  };
  for (double Times::*field :
       {&Times::frontend, &Times::opt, &Times::lower, &Times::regalloc,
        &Times::schedule, &Times::emit, &Times::assemble,
        &Times::compile_once}) {
    ms.*field = median_pass(field);
  }

  // serial: CEPX encode/decode of every compiled Program, round-tripped.
  constexpr int kCodecPasses = 20;
  for (int pass = 0; pass < kCodecPasses; ++pass) {
    for (const cepic::Program& p : programs) {
      const auto bytes = timed(ms.encode, "serial.encode_program",
                               [&] { return cepic::serial::encode_program(p); });
      const cepic::Program back =
          timed(ms.decode, "serial.decode_program",
                [&] { return cepic::serial::decode_program(bytes); });
      if (pass == 0) {
        out.check(cepic::serial::encode_program(back) == bytes,
                  "serial: Program does not round-trip");
      }
    }
  }

  // sim: each tier on the 4-ALU paper programs; the interpretive tier is
  // the reference for the other two.
  std::uint64_t tier_cycles[3] = {0, 0, 0};
  for (std::size_t w = 0; w < epic4_paper.size(); ++w) {
    cepic::SimStats reference;
    for (const cepic::ExecTier tier :
         {cepic::ExecTier::Interp, cepic::ExecTier::Decode,
          cepic::ExecTier::Threaded}) {
      cepic::SimOptions options;
      options.exec_tier = tier;
      double construct_ms = 0;
      cepic::EpicSimulator sim = timed(construct_ms, "sim.construct", [&] {
        return cepic::EpicSimulator(epic4_paper[w], {}, options);
      });
      if (tier == cepic::ExecTier::Threaded) ms.construct += construct_ms;
      const int t = static_cast<int>(tier);
      const cepic::SimStats stats =
          timed(ms.tier[t], std::string("sim.run.") + cepic::to_string(tier),
                [&] { return sim.run(); });
      tier_cycles[t] += stats.cycles;
      if (tier == cepic::ExecTier::Interp) {
        reference = stats;
      } else {
        out.check(stats == reference,
                  sources[w].name + ": " + cepic::to_string(tier) +
                      " tier SimStats differ from the interpretive tier");
      }
      out.check(sim.output() == sources[w].expected,
                sources[w].name + ": EPIC output differs from the golden");
    }
  }

  // sarm: the SA-110 baseline on the paper programs.
  std::uint64_t sarm_cycles = 0;
  for (const Source& src : sources) {
    if (!src.paper) continue;
    cepic::sarm::SProgram sp = timed(ms.sarm_compile, "sarm.compile", [&] {
      return cepic::sarm::compile_minic_to_sarm(src.minic);
    });
    cepic::sarm::SarmSimulator sim(std::move(sp));
    sarm_cycles += timed(ms.sarm_sim, "sarm.run", [&] { return sim.run(); })
                       .cycles;
    out.check(sim.output() == src.expected,
              src.name + ": SA-110 output differs from the golden");
  }

  // explore + pipeline: cold, warm (new max_cycles) and fully replayed
  // passes of the dse-sweep grid over the paper programs.
  const std::string store = work_dir + "/layer-store";
  fs::remove_all(store);
  std::vector<std::string> paper;
  for (const Source& src : sources) {
    if (src.paper) paper.push_back(src.minic);
  }
  const cepic::explore::SweepSpec spec = sweep_spec();
  cepic::explore::ExploreOptions options;
  options.jobs = 2;
  options.store_dir = store;
  options.sim.max_cycles = 800'000'000;
  const auto cold = timed(ms.cold, "explore.cold_pass", [&] {
    return cepic::explore::run_sweep_batch(paper, spec, options);
  });
  options.sim.max_cycles += 1;
  const auto warm = timed(ms.warm, "explore.warm_pass", [&] {
    return cepic::explore::run_sweep_batch(paper, spec, options);
  });
  const auto replay = timed(ms.replay, "pipeline.result_replay", [&] {
    return cepic::explore::run_sweep_batch(paper, spec, options);
  });
  std::size_t points = 0, replayed = 0;
  bool same = true;
  for (std::size_t w = 0; w < paper.size(); ++w) {
    const auto& c = cold.sweeps[w].points;
    for (std::size_t i = 0; i < c.size(); ++i) {
      const auto& wp = warm.sweeps[w].points[i];
      const auto& rp = replay.sweeps[w].points[i];
      same = same && c[i].ok && c[i].output_hash == wp.output_hash &&
             c[i].output_hash == rp.output_hash && c[i].cycles == wp.cycles &&
             c[i].cycles == rp.cycles;
    }
    points += c.size();
    replayed += replay.sweeps[w].cache_hits;
  }
  out.check(same, "explore: cold, warm and replayed outcomes differ");
  out.check(warm.stats.compiles() == 0, "explore: the warm pass recompiled");
  out.check(replayed == points, "explore: the replay pass simulated");
  const auto& st = warm.stats.store;
  const std::uint64_t store_hits = st.ir.hits + st.assembly.hits +
                                   st.program.hits + st.lint.hits +
                                   st.ir_lint.hits;

  const auto rate = [](std::uint64_t cycles, double ms_total) {
    return static_cast<double>(cycles) / (ms_total * 1e3);
  };
  const double stages = ms.frontend + ms.opt + ms.lower + ms.regalloc +
                        ms.schedule + ms.emit + ms.assemble;
  std::cout << "compile stages cover " << stages << " of " << ms.compile_once
            << " ms of compile_once; uncovered remainder "
            << ms.compile_once - stages << " ms\n"
            << "backend.schedule share of compile_once: "
            << 100 * ms.schedule / ms.compile_once << "%\n";

  out.add("workloads.generate_ms", ms.generate, "ms");
  out.add("ir.interp_reference_ms", ms.interp, "ms");
  out.add("frontend.compile_to_ir_ms", ms.frontend, "ms");
  out.add("frontend.ir_insts", static_cast<double>(frontend_insts), "insts");
  out.add("opt.optimize_ms", ms.opt, "ms");
  out.add("opt.ir_insts", static_cast<double>(opt_insts), "insts");
  out.add("backend.lower_ms", ms.lower, "ms");
  out.add("backend.regalloc_ms", ms.regalloc, "ms");
  out.add("backend.schedule_ms", ms.schedule, "ms");
  out.add("backend.emit_ms", ms.emit, "ms");
  out.add("backend.max_block_insts", static_cast<double>(max_block), "insts");
  out.add("asmtool.assemble_ms", ms.assemble, "ms");
  out.add("pipeline.compile_stage_coverage", stages / ms.compile_once,
          "ratio");
  out.add("serial.encode_program_ms", ms.encode / kCodecPasses, "ms");
  out.add("serial.decode_program_ms", ms.decode / kCodecPasses, "ms");
  out.add("pipeline.store_hits", static_cast<double>(store_hits), "count");
  out.add("pipeline.compiles", static_cast<double>(cold.stats.compiles()),
          "count");
  out.add("pipeline.simulations", static_cast<double>(cold.stats.simulations),
          "count");
  out.add("pipeline.result_replay_ms", ms.replay, "ms");
  out.add("explore.cold_pass_ms", ms.cold, "ms");
  out.add("explore.warm_pass_ms", ms.warm, "ms");
  out.add("sim.construct_ms", ms.construct, "ms");
  const int threaded = static_cast<int>(cepic::ExecTier::Threaded);
  const int decode = static_cast<int>(cepic::ExecTier::Decode);
  const int interp = static_cast<int>(cepic::ExecTier::Interp);
  out.add("sim.threaded_mcycles_per_s",
          rate(tier_cycles[threaded], ms.tier[threaded]), "Mcycles/s");
  out.add("sim.decode_mcycles_per_s",
          rate(tier_cycles[decode], ms.tier[decode]), "Mcycles/s");
  out.add("sim.interp_mcycles_per_s",
          rate(tier_cycles[interp], ms.tier[interp]), "Mcycles/s");
  out.add("sarm.compile_ms", ms.sarm_compile, "ms");
  out.add("sarm.sim_mcycles_per_s", rate(sarm_cycles, ms.sarm_sim),
          "Mcycles/s");
  return store;
}

}  // namespace perfbench
