#include "pnr/flow.h"

#include "support/telemetry.h"

namespace fpgadbg::pnr {

void finalize_timing(CompiledDesign& design, const TimingOptions& timing) {
  telemetry::TraceScope span("pnr.timing");
  const TimingReport sta = analyze_timing(design, timing.delays);
  design.report.timing_driven = timing.timing_driven;
  design.report.critical_path_ns = sta.critical_path_ns;
  design.report.max_frequency_mhz = sta.max_frequency_mhz;
  design.report.worst_slack_ns = sta.worst_slack_ns;
  // Named so the Prometheus exposition yields exactly fpgadbg_timing_fmax_mhz.
  telemetry::metrics().gauge("timing.fmax_mhz").set(sta.max_frequency_mhz);
  telemetry::metrics()
      .gauge("timing.critical_path_ns")
      .set(sta.critical_path_ns);
}

}  // namespace fpgadbg::pnr
