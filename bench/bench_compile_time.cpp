// Reproduces the paper's §V-C1 compile-time comparison on small designs:
// with parameterized resources the flow needs ~3x fewer wires (paper:
// 5316 vs 15699), up to 4x fewer CLBs, and place & route runs up to 3x
// faster than the conventional flow on the same instrumented designs.  The
// P&R times are medians over repeated legs; the runtime ratio is published
// with its interquartile range.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common.h"
#include "debug/signal_param.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

using namespace fpgadbg;

namespace {

/// P&R is wall-clock on a shared host: each leg runs this many times and the
/// runtime ratio is published as a median with its interquartile range.
constexpr std::size_t kRepeats = 5;

struct Row {
  std::string name;
  pnr::CompileReport conv;  ///< first repeat (area and wires are exact)
  pnr::CompileReport prop;
  std::vector<double> conv_s, prop_s;  ///< P&R seconds per repeat
};

double pnr_seconds(const pnr::CompileReport& r) {
  return r.place_seconds + r.route_seconds;
}

/// Linear-interpolated quantile of `v` (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

Row run_one(const genbench::CircuitSpec& spec) {
  Row row;
  row.name = spec.name;
  const auto user = genbench::generate(spec);
  debug::InstrumentOptions inst_opt;
  inst_opt.trace_width = 8;
  const auto inst = debug::parameterize_signals(user, inst_opt);

  // Both legs run the pipeline's own physical stages, uncached; the legs
  // alternate so a slow spell of the host falls on both alike.
  const flow::Pipeline pipeline{debug::OfflineOptions{}};
  const auto conv_mapping = map::abc_map(inst.netlist);
  const auto prop_mapping = map::tcon_map(inst.netlist);
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    const pnr::CompileReport conv =
        pipeline.compile(conv_mapping.netlist, inst.trace_outputs)
            .take_or_raise()
            .report;
    const pnr::CompileReport prop =
        pipeline.compile(prop_mapping.netlist, inst.trace_outputs)
            .take_or_raise()
            .report;
    if (rep == 0) {
      row.conv = conv;
      row.prop = prop;
    }
    row.conv_s.push_back(pnr_seconds(conv));
    row.prop_s.push_back(pnr_seconds(prop));
  }
  return row;
}

/// Artifact-cache section: times the staged pipeline on the same design with
/// a cold cache, a warm cache (all six stages hit) and a warm cache after a
/// place-option change (only place/route/pconf-build re-run).  Timings are
/// recorded as bench.cache.* histograms so they land in the JSON dump.
void run_cache_section() {
  std::printf("\n=== staged pipeline: artifact-cache incrementality ===\n");
  const std::string cache_dir =
      "/tmp/fpgadbg_bench_cache_" + std::to_string(::getpid());
  std::filesystem::remove_all(cache_dir);

  const genbench::CircuitSpec spec{"cache90", 12, 8, 8, 90, 4, 6, 203};
  const auto user = genbench::generate(spec);
  debug::OfflineOptions options;
  options.instrument.trace_width = 8;
  options.cache_dir = cache_dir;

  auto timed_run = [&](const char* label, const char* metric) {
    Stopwatch timer;
    auto result = flow::Pipeline(options).run(user);
    const double seconds = telemetry::metrics()
                               .histogram(metric)
                               .observe(timer.elapsed_seconds());
    if (!result.ok()) {
      std::printf("  %-24s FAILED: %s\n", label,
                  result.status().to_string().c_str());
      return std::make_pair(seconds, std::size_t{0});
    }
    std::printf("  %-24s %8.3f s  (%zu stages executed, %zu from cache)\n",
                label, seconds, result.value().stages_executed,
                result.value().stages_from_cache);
    return std::make_pair(seconds, result.value().stages_executed);
  };

  const auto [cold_s, cold_exec] =
      timed_run("cold cache", "bench.cache.cold_seconds");
  const auto [warm_s, warm_exec] =
      timed_run("warm cache", "bench.cache.warm_seconds");
  options.compile.place.seed += 1;
  const auto [inval_s, inval_exec] =
      timed_run("place-option change", "bench.cache.invalidated_seconds");

  std::printf("  warm speedup over cold: %.0fx (%zu -> %zu stage "
              "executions)\n",
              cold_s / std::max(1e-9, warm_s), cold_exec, warm_exec);
  std::printf("  place change re-runs %zu/6 stages in %.0f%% of the cold "
              "time\n",
              inval_exec, 100.0 * inval_s / std::max(1e-9, cold_s));
  std::filesystem::remove_all(cache_dir);
}

}  // namespace

int main() {
  std::printf("=== SS V-C1: compile-time overhead on small designs ===\n");
  std::printf("conventional flow (ABC map, no sharing) vs proposed flow "
              "(TCONMap, parameterized routing sharing)\n\n");

  const std::vector<genbench::CircuitSpec> specs = {
      {"small40", 8, 6, 4, 40, 3, 5, 201},
      {"small60", 10, 8, 6, 60, 4, 5, 202},
      {"small90", 12, 8, 8, 90, 4, 6, 203},
  };

  std::printf("%-8s | %10s | %13s | %13s | %12s | %7s\n", "design",
              "CLBs c/p", "wires c/p", "wirelen c/p", "P&R s c/p", "routed");
  double wl_ratio = 1.0, clb_ratio = 1.0;
  std::vector<double> time_ratio(kRepeats, 1.0);  // geomean product per repeat
  for (const auto& spec : specs) {
    const Row row = run_one(spec);
    std::printf("%-8s | %4zu %5zu | %6zu %6zu | %6zu %6zu | %5.2f %5.2f | %s/%s\n",
                row.name.c_str(), row.conv.clbs_used, row.prop.clbs_used,
                row.conv.wire_nodes_used, row.prop.wire_nodes_used,
                row.conv.total_wirelength, row.prop.total_wirelength,
                quantile(row.conv_s, 0.5), quantile(row.prop_s, 0.5),
                row.conv.route_success ? "ok" : "FAIL",
                row.prop.route_success ? "ok" : "FAIL");
    wl_ratio *= static_cast<double>(row.conv.total_wirelength) /
                static_cast<double>(row.prop.total_wirelength);
    clb_ratio *= static_cast<double>(row.conv.clbs_used) /
                 static_cast<double>(row.prop.clbs_used);
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      time_ratio[rep] *= row.conv_s[rep] / std::max(1e-9, row.prop_s[rep]);
    }
  }
  const double n = static_cast<double>(specs.size());
  telemetry::Histogram& ratio_hist =
      telemetry::metrics().histogram("bench.compile.pnr_runtime_ratio");
  for (double& r : time_ratio) r = ratio_hist.observe(std::pow(r, 1.0 / n));
  std::printf("\ngeomean wirelength ratio (conv/prop): %.2fx (paper ~3x: 15699 vs 5316)\n",
              std::pow(wl_ratio, 1.0 / n));
  std::printf("geomean CLB ratio (conv/prop):        %.2fx (paper: up to 4x)\n",
              std::pow(clb_ratio, 1.0 / n));
  std::printf("geomean P&R runtime ratio (conv/prop): median %.2fx, IQR "
              "%.2fx-%.2fx over %zu repeats (paper: up to 3x faster)\n",
              quantile(time_ratio, 0.5), quantile(time_ratio, 0.25),
              quantile(time_ratio, 0.75), kRepeats);
  run_cache_section();
  fpgadbg::bench::dump_metrics("compile_time");
  return 0;
}
