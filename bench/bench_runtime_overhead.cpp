// Reproduces the paper's §V-C2 run-time overhead analysis:
//   * SCG evaluation of a parameterized configuration: <= ~50 us, measured
//     on the real PConf of a compiled design;
//   * each parameterized (partial) reconfiguration is ~3 orders of magnitude
//     faster than a full reconfiguration (176 ms on a Virtex-5);
//   * at 400 MHz with a 4-tick debug loop, the ~50 us activation cost breaks
//     even after ~5000 debugging turns (the amortization series).
#include <algorithm>
#include <cstdio>

#include "bitstream/icap.h"
#include "common.h"
#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/trigger.h"
#include "support/introspect.h"
#include "support/profiler.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "support/stopwatch.h"

using namespace fpgadbg;

namespace {

/// Cycles/second of `simulator` under scalar random stimulus (parameters
/// as constructed: all zero).
template <typename Simulator>
double emulation_rate(Simulator& simulator, std::size_t num_inputs) {
  Rng rng(99);
  std::vector<bool> inputs(num_inputs);
  const int cycles = 20000;
  Stopwatch timer;
  for (int c = 0; c < cycles; ++c) {
    for (std::size_t i = 0; i < inputs.size(); ++i) inputs[i] = rng.next_bool();
    simulator.set_inputs(inputs);
    simulator.step();
  }
  return cycles / timer.elapsed_seconds();
}

}  // namespace

int main() {
  std::printf("=== SS V-C2: run-time overhead ===\n\n");

  genbench::CircuitSpec spec{"runtime", 12, 8, 8, 90, 4, 6, 301};
  const auto user = genbench::generate(spec);
  debug::OfflineOptions options;
  options.instrument.trace_width = 8;
  const auto offline = debug::run_offline(user, options);
  std::printf("design: %zu gates -> %zu LUTs + %zu TCONs, %zu parameters, "
              "%zu-frame device\n",
              spec.num_gates, offline.mapping.stats.lut_area,
              offline.mapping.stats.num_tcons,
              offline.instrumented.netlist.params().size(),
              offline.pconf->total_bits() / arch::FrameGeometry::kFrameBits);

  bitstream::IcapModel icap;
  debug::DebugSession session(offline, icap);
  std::printf("emulation backend: %s\n",
              sim::to_string(session.dut().backend()).c_str());

  // Measure a series of real debugging turns.
  double worst_eval = 0.0, sum_eval = 0.0, sum_reconf = 0.0;
  std::size_t sum_frames = 0;
  const int turns = 50;
  const auto& lanes = offline.instrumented.lane_signals;
  for (int t = 0; t < turns; ++t) {
    const auto& lane = lanes[static_cast<std::size_t>(t) % lanes.size()];
    const auto rep =
        session.observe({lane[static_cast<std::size_t>(t) % lane.size()]});
    worst_eval = std::max(worst_eval, rep.scg_eval_seconds);
    sum_eval += rep.scg_eval_seconds;
    sum_reconf += rep.reconfig_seconds;
    sum_frames += rep.frames_reconfigured;
  }
  const double avg_eval = sum_eval / turns;
  const double avg_reconf = sum_reconf / turns;
  const double activation = avg_eval + avg_reconf;
  const double full = icap.full_seconds(icap.reference_frames);

  std::printf("\nmeasured over %d signal-set activations:\n", turns);
  std::printf("  SCG evaluation:      avg %7.1f us, worst %7.1f us "
              "(paper: max ~50 us)\n",
              avg_eval * 1e6, worst_eval * 1e6);
  std::printf("  partial reconfig:    avg %7.1f us over avg %.1f frames\n",
              avg_reconf * 1e6,
              static_cast<double>(sum_frames) / turns);
  std::printf("  full reconfiguration:        %7.1f ms (Virtex-5 reference)\n",
              full * 1e3);
  std::printf("  speedup vs full reconfig:    %7.0fx (paper: ~3 orders of "
              "magnitude)\n",
              full / activation);

  bitstream::RuntimeOverheadModel model;
  std::printf("\namortization at %.0f MHz, %.0f-tick debug loop "
              "(turn = %.0f ns):\n",
              model.clock_hz / 1e6, model.ticks_per_turn,
              model.turn_seconds() * 1e9);
  std::printf("  break-even for a 50 us activation: %.0f turns "
              "(paper: 5000)\n",
              model.break_even_turns(50e-6));
  std::printf("  break-even for measured activation (%.1f us): %.0f turns\n",
              activation * 1e6, model.break_even_turns(activation));

  std::printf("\n  %-12s %s\n", "turns", "relative activation overhead");
  for (double t : {100.0, 1000.0, 5000.0, 10000.0, 100000.0, 1000000.0}) {
    std::printf("  %-12.0f %.3f (50us model) / %.3f (measured)\n", t,
                model.relative_overhead(50e-6, t),
                model.relative_overhead(activation, t));
  }
  // The emulated DUT behind the session: the compiled engine running the
  // program folded on the parameters, against the same engine running the
  // free-parameter program (CompiledSimulator driven directly) and the
  // per-cell interpreter.
  const map::MappedNetlist& mn = offline.mapping.netlist;
  sim::MappedSimulator interpreted(mn, sim::SimBackend::kInterpreted);
  sim::CompiledSimulator unfolded(mn);
  sim::MappedSimulator folded(mn, sim::SimBackend::kCompiled);
  const double interp_rate = emulation_rate(interpreted, mn.inputs().size());
  const double unfolded_rate = emulation_rate(unfolded, mn.inputs().size());
  const double folded_rate = emulation_rate(folded, mn.inputs().size());
  const std::size_t unfolded_ops = unfolded.program().ops.size();
  const std::size_t folded_ops = folded.program()->ops.size();
  std::printf("\nDUT emulation throughput (scalar stimulus):\n");
  std::printf("  interpreted backend:      %10.0f cycles/s\n", interp_rate);
  std::printf("  compiled, free params:    %10.0f cycles/s, %zu ops\n",
              unfolded_rate, unfolded_ops);
  std::printf("  compiled, params folded:  %10.0f cycles/s, %zu ops, %zu "
              "aliased cells (%.1fx free params, %.1fx interpreted)\n",
              folded_rate, folded_ops, folded.aliased_cells(),
              folded_rate / unfolded_rate, folded_rate / interp_rate);
  telemetry::MetricsRegistry& metrics = telemetry::metrics();
  metrics.gauge("bench.dut.interpreted_cycles_per_sec").set(interp_rate);
  metrics.gauge("bench.dut.unfolded_cycles_per_sec").set(unfolded_rate);
  metrics.gauge("bench.dut.folded_cycles_per_sec").set(folded_rate);
  metrics.gauge("bench.dut.unfolded_ops")
      .set(static_cast<double>(unfolded_ops));
  metrics.gauge("bench.dut.folded_ops").set(static_cast<double>(folded_ops));

  // Flight-recorder cost on the emulation hot path: run() only bumps a
  // pending-cycle counter per step (events batch-flush at turn boundaries),
  // so the journal should stay within a ~5% overhead budget with no sink.
  const std::uint64_t jcycles = 20000;
  auto timed_run = [&](bool journal_enabled) {
    session.journal().set_enabled(journal_enabled);
    double best = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
      // Fires on the first sample; post-trigger window spans the whole run,
      // so every repetition executes exactly `jcycles` emulated cycles.
      sim::Trigger trig(std::string(session.num_lanes(), 'x'), jcycles);
      Rng jrng(17);
      std::vector<bool> jin(offline.mapping.netlist.inputs().size());
      Stopwatch timer;
      session.run(
          trig,
          [&](std::uint64_t) {
            for (std::size_t i = 0; i < jin.size(); ++i) {
              jin[i] = jrng.next_bool();
            }
            return jin;
          },
          jcycles);
      best = std::min(best, timer.elapsed_seconds());
    }
    return best;
  };
  timed_run(false);  // warm-up
  const double without_journal = timed_run(false);
  const double with_journal = timed_run(true);
  session.journal().set_enabled(true);
  const double overhead =
      (with_journal - without_journal) / without_journal * 100.0;
  std::printf("\nsession flight recorder (journal, in-memory ring, no "
              "sink):\n");
  std::printf("  run() of %llu cycles: %.3f ms journal off, %.3f ms journal "
              "on -> %+.2f%% overhead (budget <= 5%%)\n",
              static_cast<unsigned long long>(jcycles),
              without_journal * 1e3, with_journal * 1e3, overhead);

  // Live introspection cost on the same hot paths: the server thread sits
  // in poll() and progress reporting is iteration-cadence, so running with
  // --introspect but no client attached must stay within a ~1% budget.
  const double run_plain = timed_run(false);
  auto introspect =
      support::IntrospectServer::start(support::IntrospectOptions{});
  if (!introspect.ok()) {
    std::fprintf(stderr, "introspect server failed to start: %s\n",
                 introspect.status().to_string().c_str());
    return 1;
  }
  const double run_serving = timed_run(false);
  const double run_overhead = (run_serving - run_plain) / run_plain * 100.0;

  // And a threaded route negotiation (progress + series at iteration
  // cadence) with the idle server still up.
  auto timed_route = [&] {
    genbench::CircuitSpec rspec{"introroute", 13, 8, 8, 260, 5, 6, 977};
    const auto rnl = genbench::generate(rspec);
    debug::OfflineOptions ropt;
    ropt.instrument.trace_width = 8;
    ropt.compile.route.route_threads = 4;
    Stopwatch timer;
    const auto roffline = debug::run_offline(rnl, ropt);
    (void)roffline;
    return timer.elapsed_seconds();
  };
  const double route_serving = timed_route();
  introspect.value()->stop();
  const double route_plain = timed_route();
  const double route_overhead =
      (route_serving - route_plain) / route_plain * 100.0;

  std::printf("\nlive introspection server (idle, no client connected):\n");
  std::printf("  run() of %llu cycles: %.3f ms server off, %.3f ms server "
              "on -> %+.2f%% overhead (budget <= 1%%)\n",
              static_cast<unsigned long long>(jcycles), run_plain * 1e3,
              run_serving * 1e3, run_overhead);
  std::printf("  threaded route+flow:  %.3f s server off, %.3f s server "
              "on -> %+.2f%% apparent overhead (single sample; includes "
              "progress/series reporting)\n",
              route_plain, route_serving, route_overhead);

  // Sampling-profiler cost on the emulation hot path: a SIGPROF per thread
  // per tick interrupts the levelized sweep mid-flight, so the 99 Hz
  // default must stay within a 2% budget to be usable on live sessions.
  const int sample_hz = 99;
  const double prof_off = timed_run(false);
  const auto prof_started =
      prof::start_profiler(prof::ProfilerOptions{sample_hz, 1u << 16});
  if (!prof_started.ok()) {
    std::fprintf(stderr, "profiler failed to start: %s\n",
                 prof_started.to_string().c_str());
    return 1;
  }
  const double prof_on = timed_run(false);
  prof::stop_profiler();
  const prof::ProfilerStats pstats = prof::profiler_stats();
  const double prof_overhead = (prof_on - prof_off) / prof_off * 100.0;
  std::printf("\nsampling profiler (%d Hz wall-clock, all threads):\n",
              sample_hz);
  std::printf("  run() of %llu cycles: %.3f ms sampler off, %.3f ms sampler "
              "on -> %+.2f%% overhead (budget <= 2%%)\n",
              static_cast<unsigned long long>(jcycles), prof_off * 1e3,
              prof_on * 1e3, prof_overhead);
  std::printf("  %llu samples captured, %llu dropped\n",
              static_cast<unsigned long long>(pstats.samples),
              static_cast<unsigned long long>(pstats.dropped));
  telemetry::metrics().gauge("bench.profiler.overhead_pct").set(prof_overhead);
  telemetry::metrics()
      .gauge("bench.profiler.sample_hz")
      .set(static_cast<double>(sample_hz));
  telemetry::metrics()
      .gauge("bench.profiler.samples")
      .set(static_cast<double>(pstats.samples));
  telemetry::metrics()
      .gauge("bench.profiler.dropped_samples")
      .set(static_cast<double>(pstats.dropped));

  std::printf("\nfor larger designs, the overhead becomes smaller relative to "
              "the debugging turn (paper conclusion).\n");
  fpgadbg::bench::dump_metrics("runtime_overhead");
  return 0;
}
