// End-to-end tests of the fpgadbg command-line tool (via subprocess).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "testutil/json_lite.h"

#ifndef FPGADBG_CLI_PATH
#error "FPGADBG_CLI_PATH must be defined by the build"
#endif

namespace {

using fpgadbg::testutil::JsonValue;
using fpgadbg::testutil::parse_json;

struct RunResult {
  int exit_code;
  std::string output;
};

// ctest runs each discovered TEST as its own process (possibly in
// parallel), so capture files are keyed by pid.
std::string tmp_path(const std::string& stem) {
  return "/tmp/fpgadbg_cli_" + std::to_string(::getpid()) + "_" + stem;
}

RunResult run_env(const std::string& env, const std::string& args) {
  const std::string out_path = tmp_path("out.txt");
  const std::string code_path = tmp_path("code.txt");
  const std::string cmd = (env.empty() ? "" : env + " ") +
                          std::string(FPGADBG_CLI_PATH) + " " + args + " > " +
                          out_path + " 2>&1; echo $? > " + code_path;
  std::system(cmd.c_str());
  RunResult result;
  {
    std::ifstream in(code_path);
    in >> result.exit_code;
  }
  {
    std::ifstream in(out_path);
    std::ostringstream os;
    os << in.rdbuf();
    result.output = os.str();
  }
  return result;
}

RunResult run(const std::string& args) { return run_env("", args); }

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A tiny sequential circuit: enough internal signals to instrument with
/// --width 2, small enough that the full offline flow runs in milliseconds.
std::string write_profile_blif(const std::string& stem) {
  const std::string path = tmp_path(stem);
  std::ofstream out(path);
  out << ".model clitiny\n"
         ".inputs a b c d\n"
         ".outputs y\n"
         ".latch n3 r 0\n"
         ".names a b n1\n11 1\n"
         ".names c d n2\n01 1\n"
         ".names n1 n2 n3\n10 1\n"
         ".names n3 r y\n11 1\n"
         ".end\n";
  return path;
}

TEST(Cli, NoArgsShowsUsage) {
  EXPECT_EQ(run("").exit_code, 2);
}

TEST(Cli, GenListShowsBenchmarks) {
  const auto r = run("gen list");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("stereov"), std::string::npos);
  EXPECT_NE(r.output.find("s38584"), std::string::npos);
}

TEST(Cli, GenStatsInstrumentMapPipeline) {
  ASSERT_EQ(run("gen stereov /tmp/fpgadbg_cli_c.blif").exit_code, 0);

  const auto stats = run("stats /tmp/fpgadbg_cli_c.blif");
  EXPECT_EQ(stats.exit_code, 0);
  EXPECT_NE(stats.output.find("pi=32"), std::string::npos);
  EXPECT_NE(stats.output.find("latch=8"), std::string::npos);

  const auto inst = run(
      "instrument /tmp/fpgadbg_cli_c.blif /tmp/fpgadbg_cli_i.blif "
      "/tmp/fpgadbg_cli_i.par --width 16");
  EXPECT_EQ(inst.exit_code, 0);
  EXPECT_NE(inst.output.find("parameters"), std::string::npos);

  const auto mapped = run(
      "map /tmp/fpgadbg_cli_i.blif --par /tmp/fpgadbg_cli_i.par "
      "--mapper tcon");
  EXPECT_EQ(mapped.exit_code, 0);
  EXPECT_NE(mapped.output.find("TCONs"), std::string::npos);

  const auto conv = run(
      "map /tmp/fpgadbg_cli_i.blif --par /tmp/fpgadbg_cli_i.par "
      "--mapper abc");
  EXPECT_EQ(conv.exit_code, 0);
  EXPECT_NE(conv.output.find("0 TCONs"), std::string::npos);
}

TEST(Cli, InstrumentWithSelection) {
  ASSERT_EQ(run("gen stereov /tmp/fpgadbg_cli_s.blif").exit_code, 0);
  const auto r = run(
      "instrument /tmp/fpgadbg_cli_s.blif /tmp/fpgadbg_cli_si.blif "
      "/tmp/fpgadbg_cli_si.par --width 8 --select 20");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("critical signal selection"), std::string::npos);
}

TEST(Cli, ExportWritesVerilog) {
  ASSERT_EQ(run("gen stereov /tmp/fpgadbg_cli_v.blif").exit_code, 0);
  const auto r = run("export /tmp/fpgadbg_cli_v.blif /tmp/fpgadbg_cli_v.v");
  EXPECT_EQ(r.exit_code, 0);
  std::ifstream v("/tmp/fpgadbg_cli_v.v");
  std::ostringstream os;
  os << v.rdbuf();
  EXPECT_NE(os.str().find("module"), std::string::npos);
  EXPECT_NE(os.str().find("endmodule"), std::string::npos);
}

TEST(Cli, BadFileFailsCleanly) {
  // Missing input files map to the structured not-found error (exit 3).
  const auto r = run("stats /nonexistent.blif");
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("fpgadbg:"), std::string::npos);
  EXPECT_NE(r.output.find("code=not-found"), std::string::npos);
}

TEST(Cli, ParseErrorHasPositionAndExitCode) {
  const std::string path = tmp_path("broken.blif");
  {
    std::ofstream out(path);
    out << ".model broken\n.inputs a\n.outputs y\n.names a y\nnot a cover\n";
  }
  const auto r = run("stats " + path);
  EXPECT_EQ(r.exit_code, 4);
  EXPECT_NE(r.output.find("code=parse-error"), std::string::npos);
  EXPECT_NE(r.output.find("broken.blif"), std::string::npos);
}

TEST(Cli, CorruptCacheEntryReported) {
  const std::string blif = write_profile_blif("corrupt_in.blif");
  const std::string cache = tmp_path("corrupt_cache");
  std::system(("rm -rf " + cache).c_str());
  ASSERT_EQ(run("flow " + blif + " --width 2 --cache-dir " + cache).exit_code,
            0);
  // Overwrite the key inside every instrument-stage index; the re-run must
  // detect the integrity failure rather than deserialize garbage.
  std::system(("for f in " + cache +
               "/index/instrument/*; do printf 'XXXXXXXX' | "
               "dd of=$f bs=1 seek=16 conv=notrunc 2>/dev/null; done")
                  .c_str());
  const auto r = run("flow " + blif + " --width 2 --cache-dir " + cache);
  EXPECT_EQ(r.exit_code, 6);
  EXPECT_NE(r.output.find("code=corrupt-artifact"), std::string::npos);
  EXPECT_NE(r.output.find("stage=instrument"), std::string::npos);
}

TEST(Cli, CacheDirMakesRerunSkipStages) {
  const std::string blif = write_profile_blif("cache_in.blif");
  const std::string cache = tmp_path("warm_cache");
  std::system(("rm -rf " + cache).c_str());
  const auto cold = run("flow " + blif + " --width 2 --cache-dir " + cache);
  ASSERT_EQ(cold.exit_code, 0);
  EXPECT_NE(cold.output.find("6 stages executed, 0 from cache"),
            std::string::npos);
  const auto warm = run("flow " + blif + " --width 2 --cache-dir " + cache);
  ASSERT_EQ(warm.exit_code, 0);
  EXPECT_NE(warm.output.find("0 stages executed, 6 from cache"),
            std::string::npos);
}

TEST(Cli, SharedCasRootIsSharedAcrossProcesses) {
  const std::string blif = write_profile_blif("cas_in.blif");
  const std::string root = tmp_path("cas_root");
  std::system(("rm -rf " + root).c_str());
  // Two separate CLI processes against one cache root: the first publishes,
  // the second replays every stage from the shared store via mmap.
  const auto first = run("flow " + blif + " --width 2 --cache-dir " + root);
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_NE(first.output.find("6 stages executed, 0 from cache"),
            std::string::npos);
  const auto second = run("flow " + blif + " --width 2 --cache-dir " + root);
  ASSERT_EQ(second.exit_code, 0) << second.output;
  EXPECT_NE(second.output.find("0 stages executed, 6 from cache"),
            std::string::npos);
  // The summary reports the zero-copy path: mmap hits, bytes mapped.
  const auto pos = second.output.find("mmap hits");
  ASSERT_NE(pos, std::string::npos) << second.output;
  EXPECT_EQ(second.output.find("0 mmap hits"), std::string::npos)
      << second.output;
  // CAS layout on disk: content-named objects + per-stage indexes.
  EXPECT_TRUE(std::ifstream(root + "/.lock").good());
  const auto gc_all = run("cache gc --max-bytes 0 --cache-dir " + root);
  ASSERT_EQ(gc_all.exit_code, 0) << gc_all.output;
  EXPECT_NE(gc_all.output.find("cache gc (" + root + "): kept 0 entries"),
            std::string::npos)
      << gc_all.output;
  // After the full sweep a third run is cold again.
  const auto third = run("flow " + blif + " --width 2 --cache-dir " + root);
  ASSERT_EQ(third.exit_code, 0) << third.output;
  EXPECT_NE(third.output.find("6 stages executed, 0 from cache"),
            std::string::npos);
}

TEST(Cli, CacheGcEnforcesByteBudget) {
  const std::string blif = write_profile_blif("gc_in.blif");
  const std::string cache = tmp_path("gc_cache");
  std::system(("rm -rf " + cache).c_str());
  ASSERT_EQ(run("flow " + blif + " --width 2 --cache-dir " + cache).exit_code,
            0);
  const auto gc = run("cache gc --max-bytes 1 --cache-dir " + cache);
  ASSERT_EQ(gc.exit_code, 0) << gc.output;
  EXPECT_NE(gc.output.find("cache gc (" + cache + ")"), std::string::npos);
  EXPECT_NE(gc.output.find("kept 0 entries / 0 bytes"), std::string::npos);
  // Missing cache location and missing budget are usage errors.
  EXPECT_EQ(run("cache gc --max-bytes 1").exit_code, 2);
  EXPECT_EQ(run("cache gc --cache-dir " + cache).exit_code, 2);
}

TEST(Cli, UnknownMapperRejected) {
  ASSERT_EQ(run("gen stereov /tmp/fpgadbg_cli_m.blif").exit_code, 0);
  EXPECT_EQ(run("map /tmp/fpgadbg_cli_m.blif --mapper bogus").exit_code, 2);
}

TEST(Cli, UsageMentionsProfileAndGlobalOptions) {
  const auto r = run("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("profile"), std::string::npos);
  EXPECT_NE(r.output.find("--trace"), std::string::npos);
  EXPECT_NE(r.output.find("--metrics"), std::string::npos);
  EXPECT_NE(r.output.find("--log-level"), std::string::npos);
  EXPECT_NE(r.output.find("FPGADBG_LOG_LEVEL"), std::string::npos);
}

// `profile` prints where a turn's measured time goes; the parts are timed
// inside the turn, so none exceeds the wall time and the rest is >= 0.
TEST(Cli, ProfilePrintsTheTurnLedger) {
  const std::string blif = write_profile_blif("ledger.blif");
  const auto r = run("profile " + blif + " --width 2 --turns 5 --cycles 4");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::size_t at =
      r.output.find("turn ledger (median us over 5 turns): ");
  ASSERT_NE(at, std::string::npos) << r.output;
  const std::string line = r.output.substr(at, r.output.find('\n', at) - at);
  double select = -1, scg = -1, diff = -1, retarget = -1, rest = -1, wall = -1;
  ASSERT_EQ(std::sscanf(line.c_str(),
                        "turn ledger (median us over 5 turns): select %lf, "
                        "scg %lf, frame diff %lf, retarget %lf, unaccounted "
                        "%lf, wall %lf",
                        &select, &scg, &diff, &retarget, &rest, &wall),
            6)
      << line;
  EXPECT_GT(wall, 0.0) << line;
  for (double part : {select, scg, diff, retarget}) {
    EXPECT_GE(part, 0.0) << line;
    EXPECT_LE(part, wall) << line;
  }
  EXPECT_GE(rest, 0.0) << line;
  EXPECT_LE(rest, wall) << line;
}

// `profile` prints the size of the emulated DUT's program: folded on the
// current parameters it is smaller than the free-parameter lowering, and
// each turn that changes the parameters re-folds it once.
TEST(Cli, ProfilePrintsTheDutProgram) {
  const std::string blif = write_profile_blif("dut.blif");
  const auto r = run("profile " + blif + " --width 2 --turns 5 --cycles 4");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::size_t at = r.output.find("DUT program: ");
  ASSERT_NE(at, std::string::npos) << r.output;
  const std::string line = r.output.substr(at, r.output.find('\n', at) - at);
  unsigned long ops = 0, unfolded = 0, aliased = 0;
  unsigned long long refolds = 0;
  double p50 = -1;
  ASSERT_EQ(std::sscanf(line.c_str(),
                        "DUT program: %lu ops (%lu unfolded, %lu aliased "
                        "cells), refold p50 %lf us over %llu refolds",
                        &ops, &unfolded, &aliased, &p50, &refolds),
            5)
      << line;
  EXPECT_LT(ops, unfolded) << line;
  EXPECT_GT(aliased, 0u) << line;
  EXPECT_GE(refolds, 1u) << line;
  EXPECT_LE(refolds, 5u) << line;
  EXPECT_GT(p50, 0.0) << line;
}

TEST(Cli, ProfileWritesTelemetryArtifacts) {
  const std::string blif = write_profile_blif("prof.blif");
  const std::string trace_path = tmp_path("prof_trace.json");
  const std::string metrics_path = tmp_path("prof_metrics.json");
  const auto r = run("profile " + blif +
                     " --width 2 --turns 3 --cycles 16 --trace=" + trace_path +
                     " --metrics " + metrics_path);
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // The human-readable table names the stages and key counters.
  EXPECT_NE(r.output.find("offline stage times"), std::string::npos);
  EXPECT_NE(r.output.find("pnr.route.iterations"), std::string::npos);
  EXPECT_NE(r.output.find("scg.bits_reevaluated"), std::string::npos);

  // The Chrome-trace timeline parses and holds the expected stage spans.
  const JsonValue trace = parse_json(read_file(trace_path));
  const JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  auto find_span = [&](const std::string& name) -> const JsonValue* {
    for (const JsonValue& e : events->array) {
      if (e.find("name") != nullptr && e.find("name")->str == name) return &e;
    }
    return nullptr;
  };
  const JsonValue* offline = find_span("debug.offline");
  ASSERT_NE(offline, nullptr);
  for (const char* stage : {"offline.instrument", "offline.map", "offline.pnr",
                            "offline.bitstream"}) {
    const JsonValue* span = find_span(stage);
    ASSERT_NE(span, nullptr) << "missing stage span " << stage;
    EXPECT_EQ(span->find("ph")->str, "X");
    // Stage spans nest inside the offline umbrella span.
    const double o_ts = offline->find("ts")->number;
    const double o_end = o_ts + offline->find("dur")->number;
    const double s_ts = span->find("ts")->number;
    EXPECT_GE(s_ts, o_ts) << stage;
    EXPECT_LE(s_ts + span->find("dur")->number, o_end + 1.0) << stage;
  }
  // Per-turn online spans: SCG evaluation and the DPR charge.
  ASSERT_NE(find_span("debug.turn"), nullptr);
  ASSERT_NE(find_span("debug.scg"), nullptr);
  ASSERT_NE(find_span("debug.dpr"), nullptr);

  // The metrics registry dump parses and carries the paper-facing counters.
  const JsonValue metrics = parse_json(read_file(metrics_path));
  const JsonValue* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  auto counter = [&](const std::string& name) {
    const JsonValue* c = counters->find(name);
    return c == nullptr ? -1.0 : c->number;
  };
  EXPECT_GE(counter("pnr.route.iterations"), 1.0);
  EXPECT_GE(counter("scg.bits_reevaluated"), 1.0);
  EXPECT_GE(counter("icap.frames_transferred"), 1.0);
  // 3 profile turns + the session's initial observation.
  EXPECT_GE(counter("debug.turns"), 4.0);
  EXPECT_GE(counter("debug.cycles_emulated"), 3.0 * 16.0);
  const JsonValue* hists = metrics.find("histograms");
  ASSERT_NE(hists, nullptr);
  for (const char* h : {"offline.instrument_seconds", "offline.map_seconds",
                        "offline.pnr_seconds", "offline.bitstream_seconds",
                        "scg.eval_seconds", "debug.turn_seconds"}) {
    const JsonValue* hist = hists->find(h);
    ASSERT_NE(hist, nullptr) << "missing histogram " << h;
    EXPECT_GE(hist->find("count")->number, 1.0) << h;
  }
}

TEST(Cli, LogLevelFlagEnablesInfoLogging) {
  const std::string blif = write_profile_blif("log.blif");
  const std::string base = "profile " + blif + " --width 2 --turns 1"
                           " --cycles 4";
  // Default level is warn: no info lines.
  const auto quiet = run(base);
  ASSERT_EQ(quiet.exit_code, 0) << quiet.output;
  EXPECT_EQ(quiet.output.find("[fpgadbg info ]"), std::string::npos);
  // --log-level info (both spellings) surfaces the stage progress lines.
  const auto chatty = run(base + " --log-level info");
  ASSERT_EQ(chatty.exit_code, 0);
  EXPECT_NE(chatty.output.find("[fpgadbg info ]"), std::string::npos);
  EXPECT_NE(chatty.output.find("offline: instrumented"), std::string::npos);
  const auto eq_form = run("--log-level=info " + base);
  ASSERT_EQ(eq_form.exit_code, 0);
  EXPECT_NE(eq_form.output.find("[fpgadbg info ]"), std::string::npos);
}

TEST(Cli, LogLevelEnvVarHonored) {
  const std::string blif = write_profile_blif("env.blif");
  const std::string base = "profile " + blif + " --width 2 --turns 1"
                           " --cycles 4";
  const auto via_env = run_env("FPGADBG_LOG_LEVEL=info", base);
  ASSERT_EQ(via_env.exit_code, 0) << via_env.output;
  EXPECT_NE(via_env.output.find("[fpgadbg info ]"), std::string::npos);
  // The explicit flag outranks the environment.
  const auto flag_wins =
      run_env("FPGADBG_LOG_LEVEL=info", base + " --log-level error");
  ASSERT_EQ(flag_wins.exit_code, 0);
  EXPECT_EQ(flag_wins.output.find("[fpgadbg info ]"), std::string::npos);
  // Invalid env values warn and fall back instead of failing the run.
  const auto invalid = run_env("FPGADBG_LOG_LEVEL=bogus", "gen list");
  EXPECT_EQ(invalid.exit_code, 0);
  EXPECT_NE(invalid.output.find("ignoring invalid FPGADBG_LOG_LEVEL"),
            std::string::npos);
}

TEST(Cli, JsonLogFormat) {
  const std::string blif = write_profile_blif("json.blif");
  const auto r = run("--log-format json --log-level info profile " + blif +
                     " --width 2 --turns 1 --cycles 4");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // Every log record is one JSON object per line; find and parse one.
  std::istringstream lines(r.output);
  std::string line;
  bool found = false;
  while (std::getline(lines, line)) {
    if (line.rfind("{\"ts\":", 0) != 0) continue;
    const JsonValue record = parse_json(line);
    ASSERT_NE(record.find("level"), nullptr);
    ASSERT_NE(record.find("tid"), nullptr);
    ASSERT_NE(record.find("msg"), nullptr);
    if (record.find("level")->str == "info") found = true;
  }
  EXPECT_TRUE(found) << r.output;
}

TEST(Cli, InvalidGlobalFlagValuesRejected) {
  EXPECT_EQ(run("--log-level bogus gen list").exit_code, 2);
  EXPECT_EQ(run("--log-format xml gen list").exit_code, 2);
  EXPECT_EQ(run("gen list --trace").exit_code, 2);  // missing value
}

TEST(Cli, JournalFlagStreamsSessionEvents) {
  const std::string blif = write_profile_blif("jrnl.blif");
  const std::string journal_path = tmp_path("jrnl.jsonl");
  const auto r = run("--journal " + journal_path + " profile " + blif +
                     " --width 2 --turns 2 --cycles 8");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  // The profile table reports the flight recorder and coverage metrics.
  EXPECT_NE(r.output.find("debug.journal.events"), std::string::npos);
  EXPECT_NE(r.output.find("icap.frame_writes"), std::string::npos);
  EXPECT_NE(r.output.find("debug.coverage.fraction"), std::string::npos);
  EXPECT_NE(r.output.find("hottest frames"), std::string::npos);

  // Every journal line is a JSON object; the stream covers the whole
  // session, starting with the constructor's session_start.
  std::istringstream lines(read_file(journal_path));
  std::string line;
  std::size_t events = 0, turn_starts = 0;
  while (std::getline(lines, line)) {
    const JsonValue e = parse_json(line);
    ASSERT_NE(e.find("ev"), nullptr) << line;
    ASSERT_NE(e.find("seq"), nullptr) << line;
    EXPECT_EQ(e.find("seq")->number, static_cast<double>(events));
    if (events == 0) EXPECT_EQ(e.find("ev")->str, "session_start");
    turn_starts += e.find("ev")->str == "turn_start";
    ++events;
  }
  EXPECT_EQ(turn_starts, 3u);  // constructor turn + 2 profile turns
}

// Satellite of the causal-tracing work: one debugging turn observed through
// three different artifacts (Chrome trace, JSONL journal, JSON log lines)
// must carry the same trace ids, so a reader can join them.
TEST(Cli, TraceJournalAndJsonLogShareTraceIds) {
  const std::string blif = write_profile_blif("corr.blif");
  const std::string trace_path = tmp_path("corr_trace.json");
  const std::string journal_path = tmp_path("corr.jsonl");
  const auto r = run("--trace " + trace_path + " --journal " + journal_path +
                     " --log-format json --log-level info profile " + blif +
                     " --width 2 --turns 2 --cycles 8 --scenarios 0");
  ASSERT_EQ(r.exit_code, 0) << r.output;

  // Trace ids of every turn-scoped journal event.
  std::vector<double> journal_ids;
  std::istringstream lines(read_file(journal_path));
  std::string line;
  while (std::getline(lines, line)) {
    const JsonValue e = parse_json(line);
    const JsonValue* tid = e.find("trace_id");
    if (e.find("ev")->str == "turn_start") {
      ASSERT_NE(tid, nullptr) << "turn_start without trace_id: " << line;
      journal_ids.push_back(tid->number);
    }
  }
  ASSERT_GE(journal_ids.size(), 2u);

  // Every one of them resolves to spans in the Chrome trace.
  const JsonValue trace = parse_json(read_file(trace_path));
  const JsonValue* events = trace.find("traceEvents");
  ASSERT_NE(events, nullptr);
  for (const double id : journal_ids) {
    bool found = false;
    for (const JsonValue& e : events->array) {
      const JsonValue* args = e.find("args");
      if (args != nullptr && args->find("trace_id") != nullptr &&
          args->find("trace_id")->number == id) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "journal trace_id " << id
                       << " has no spans in the Chrome trace";
  }

  // And at least one JSON log line carries one of the journaled trace ids
  // (observe() logs at info level inside the turn span).
  bool logged = false;
  std::istringstream log_lines(r.output);
  while (std::getline(log_lines, line)) {
    if (line.empty() || line[0] != '{') continue;
    JsonValue e;
    try {
      e = parse_json(line);
    } catch (...) {
      continue;  // table output, not a log record
    }
    const JsonValue* tid = e.find("trace_id");
    if (tid == nullptr) continue;
    for (const double id : journal_ids) {
      logged |= tid->number == id;
    }
  }
  EXPECT_TRUE(logged) << "no JSON log line carried a journaled trace id\n"
                      << r.output;
}

TEST(Cli, ProfileFlameWritesCollapsedStacks) {
  // A real generated design so the pipeline runs long enough for a
  // high-rate sampler to land stacks.
  const std::string blif = tmp_path("flame_design.blif");
  ASSERT_EQ(run("gen stereov " + blif).exit_code, 0);
  const std::string flame_path = tmp_path("flame.txt");
  const auto r = run("profile " + blif +
                     " --turns 2 --cycles 64 --scenarios 32 --flame " +
                     flame_path + " --sample-hz 1993");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("sampler (1993 Hz)"), std::string::npos);
  EXPECT_NE(r.output.find("dropped samples"), std::string::npos);
  EXPECT_NE(r.output.find("dropped ring spans"), std::string::npos);
  EXPECT_NE(r.output.find(flame_path), std::string::npos);
  const std::string collapsed = read_file(flame_path);
  ASSERT_FALSE(collapsed.empty()) << "no stacks sampled";
  // Collapsed format: semicolon-joined frames, trailing count.
  EXPECT_NE(collapsed.find(';'), std::string::npos);
  std::istringstream stacks(collapsed);
  std::string stack_line;
  ASSERT_TRUE(std::getline(stacks, stack_line));
  const std::size_t sp = stack_line.rfind(' ');
  ASSERT_NE(sp, std::string::npos);
  EXPECT_GT(std::strtol(stack_line.c_str() + sp + 1, nullptr, 10), 0);
}

TEST(Cli, ProfileFlameJsonIsSpeedscope) {
  const std::string blif = write_profile_blif("flamejson.blif");
  const std::string flame_path = tmp_path("flame.json");
  const auto r = run("profile " + blif +
                     " --width 2 --turns 2 --cycles 64 --flame " + flame_path +
                     " --sample-hz 4999");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const JsonValue doc = parse_json(read_file(flame_path));
  ASSERT_NE(doc.find("shared"), nullptr);
  ASSERT_NE(doc.find("profiles"), nullptr);
  EXPECT_NE(doc.find("$schema")->str.find("speedscope"), std::string::npos);
}

namespace benchdiff_fixtures {

/// Minimal BENCH_summary.json with one harness and tweakable metrics.
std::string write_summary(const std::string& stem, double warm_seconds,
                          double speedup, double bit_identical,
                          double overhead_pct, bool with_overhead = true) {
  const std::string path = tmp_path(stem);
  std::ofstream out(path);
  out << "{\"commit\": \"test\", \"quick\": true, \"results\": {\n"
         " \"compile_time\": {\"benchmark\": \"compile_time\", \"metrics\": {"
         "\"counters\": {},\n"
         "  \"gauges\": {\"bench.mmap.speedup\": "
      << speedup << ", \"bench.mmap.bit_identical\": " << bit_identical;
  if (with_overhead) {
    out << ", \"bench.profiler.overhead_pct\": " << overhead_pct;
  }
  out << "},\n"
         "  \"histograms\": {\"bench.cache.warm_seconds\": {\"count\": 1, "
         "\"sum\": "
      << warm_seconds
      << ", \"min\": 0, \"max\": 0, \"p50\": 0, \"p90\": 0, \"p99\": 0}},\n"
         "  \"series\": {}}}\n}}\n";
  return path;
}

}  // namespace benchdiff_fixtures

TEST(Cli, BenchdiffPassesOnEquivalentSummaries) {
  using benchdiff_fixtures::write_summary;
  const std::string base = write_summary("bd_base.json", 1.0, 10.0, 1.0, 1.0);
  const std::string fresh =
      write_summary("bd_fresh.json", 1.2, 9.0, 1.0, 1.5);  // within tolerance
  const auto r = run("benchdiff " + fresh + " --baseline " + base);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("no regressions"), std::string::npos);
}

TEST(Cli, BenchdiffFailsOnTimingRegression) {
  using benchdiff_fixtures::write_summary;
  const std::string base = write_summary("bd_base2.json", 1.0, 10.0, 1.0, 1.0);
  const std::string slow =
      write_summary("bd_slow.json", 2.0, 10.0, 1.0, 1.0);  // 2x slower
  const auto r = run("benchdiff " + slow + " --baseline " + base);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("FAIL"), std::string::npos);
  EXPECT_NE(r.output.find("bench.cache.warm_seconds"), std::string::npos);
  // A looser tolerance lets the same pair pass.
  EXPECT_EQ(
      run("benchdiff " + slow + " --baseline " + base + " --tolerance 2.0")
          .exit_code,
      0);
}

TEST(Cli, BenchdiffFailsOnBrokenInvariantsAndMissingMetrics) {
  using benchdiff_fixtures::write_summary;
  const std::string base = write_summary("bd_base3.json", 1.0, 10.0, 1.0, 1.0);
  // bit_identical flipped: exact-match rule fails regardless of tolerance.
  const std::string broken =
      write_summary("bd_broken.json", 1.0, 10.0, 0.0, 1.0);
  EXPECT_EQ(run("benchdiff " + broken + " --baseline " + base +
                " --tolerance 100")
                .exit_code,
            1);
  // Overhead budget: absolute +2 points, not relative.
  const std::string heavy =
      write_summary("bd_heavy.json", 1.0, 10.0, 1.0, 3.5);
  EXPECT_EQ(run("benchdiff " + heavy + " --baseline " + base).exit_code, 1);
  // A metric that vanished from the fresh summary is a coverage loss.
  const std::string shrunk =
      write_summary("bd_shrunk.json", 1.0, 10.0, 1.0, 0.0, false);
  const auto r = run("benchdiff " + shrunk + " --baseline " + base);
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("MISSING"), std::string::npos);
}

TEST(Cli, BenchdiffRejectsBadInputs) {
  EXPECT_EQ(run("benchdiff").exit_code, 2);
  const auto missing = run("benchdiff /nonexistent.json --baseline also.gone");
  EXPECT_NE(missing.exit_code, 0);
  using benchdiff_fixtures::write_summary;
  const std::string base = write_summary("bd_base4.json", 1.0, 10.0, 1.0, 1.0);
  EXPECT_EQ(run("benchdiff " + base + " --baseline " + base +
                " --tolerance -1")
                .exit_code,
            2);
}

TEST(Cli, ReportAnalysesAJournal) {
  const std::string blif = write_profile_blif("rpt.blif");
  const std::string journal_path = tmp_path("rpt.jsonl");
  const std::string metrics_path = tmp_path("rpt_metrics.json");
  ASSERT_EQ(run("--journal " + journal_path + " --metrics " + metrics_path +
                " profile " + blif + " --width 2 --turns 3 --cycles 8")
                .exit_code,
            0);

  const auto r =
      run("report " + journal_path + " " + metrics_path + " --top 3");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("per-turn breakdown"), std::string::npos);
  EXPECT_NE(r.output.find("paper bound ~50 us"), std::string::npos);
  EXPECT_NE(r.output.find("176 ms"), std::string::npos);
  EXPECT_NE(r.output.find("signal coverage after"), std::string::npos);
  EXPECT_NE(r.output.find("frame churn"), std::string::npos);
  EXPECT_NE(r.output.find("metrics snapshot"), std::string::npos);
  EXPECT_NE(r.output.find("debug.turns"), std::string::npos);
}

TEST(Cli, ReportRejectsMalformedInputs) {
  EXPECT_EQ(run("report /nonexistent/journal.jsonl").exit_code, 3);
  const std::string bad = tmp_path("bad.jsonl");
  {
    std::ofstream out(bad);
    out << "this is not json\n";
  }
  EXPECT_EQ(run("report " + bad).exit_code, 4);  // parse-error exit code
  // A journal fed a non-metrics JSON file as the snapshot is rejected too.
  const std::string journal_path = tmp_path("rr.jsonl");
  {
    std::ofstream out(journal_path);
    out << "{\"ev\":\"session_start\",\"seq\":0,\"turn\":0,\"cycle\":0,"
           "\"lanes\":2}\n";
  }
  const std::string not_metrics = tmp_path("notmetrics.json");
  {
    std::ofstream out(not_metrics);
    out << "{\"unrelated\": 1}\n";
  }
  EXPECT_EQ(run("report " + journal_path + " " + not_metrics).exit_code, 6);
}

TEST(Cli, PromFlagWritesPrometheusExposition) {
  const std::string blif = write_profile_blif("prom.blif");
  const std::string prom_path = tmp_path("metrics.prom");
  const auto r = run("--prom " + prom_path + " profile " + blif +
                     " --width 2 --turns 1 --cycles 4");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const std::string text = read_file(prom_path);
  EXPECT_NE(text.find("# TYPE fpgadbg_debug_turns_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_debug_coverage_fraction"), std::string::npos);
  EXPECT_NE(text.find("fpgadbg_debug_turn_seconds{quantile=\"0.99\"}"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// --introspect: the live HTTP server
// ---------------------------------------------------------------------------

/// Minimal HTTP GET against 127.0.0.1:<port>; "" on any socket failure.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Launches `args` in the background (stderr captured to a file), polls the
/// stderr announcement for the bound introspection port.  Returns 0 on
/// timeout.
int spawn_and_find_port(const std::string& args, const std::string& err_path) {
  const std::string cmd = std::string(FPGADBG_CLI_PATH) + " " + args + " 2> " +
                          err_path + " > /dev/null &";
  std::system(cmd.c_str());
  const std::string needle = "serving on 127.0.0.1:";
  for (int i = 0; i < 200; ++i) {
    ::usleep(50 * 1000);
    const std::string text = read_file(err_path);
    const auto pos = text.find(needle);
    if (pos != std::string::npos) {
      return std::atoi(text.c_str() + pos + needle.size());
    }
  }
  return 0;
}

TEST(Cli, IntrospectServesLiveEndpointsAndQuits) {
  const std::string blif = write_profile_blif("intro.blif");
  const std::string err = tmp_path("intro_err.txt");
  // Linger keeps the server up after the (fast) command body finishes; the
  // final /quitz shuts the process down deterministically.
  const int port = spawn_and_find_port(
      "profile " + blif +
          " --width 2 --turns 1 --cycles 8 --scenarios 64"
          " --introspect 0 --introspect-linger 60",
      err);
  ASSERT_GT(port, 0) << read_file(err);

  EXPECT_NE(http_get(port, "/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  const std::string metrics = http_get(port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("fpgadbg_"), std::string::npos);
  const std::string statusz = http_get(port, "/statusz");
  EXPECT_NE(statusz.find("uptime_seconds:"), std::string::npos);
  const std::string progressz = http_get(port, "/progressz");
  EXPECT_NE(progressz.find("\"tasks\""), std::string::npos);
  // The instrumented loops registered under their canonical names.
  EXPECT_NE(progressz.find("flow.pipeline"), std::string::npos);
  EXPECT_NE(progressz.find("debug.scenario_batch"), std::string::npos);
  EXPECT_NE(http_get(port, "/quitz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  // After /quitz the linger wait returns and the process exits; give it a
  // moment and confirm the port is closed.
  for (int i = 0; i < 100; ++i) {
    ::usleep(50 * 1000);
    if (http_get(port, "/healthz").empty()) break;
  }
  EXPECT_TRUE(http_get(port, "/healthz").empty());
}

TEST(Cli, ReportServeMountsReport) {
  const std::string blif = write_profile_blif("serve.blif");
  const std::string journal = tmp_path("serve.jsonl");
  ASSERT_EQ(run("profile " + blif +
                " --width 2 --turns 1 --cycles 8 --scenarios 0 --journal " +
                journal)
                .exit_code,
            0);
  const std::string err = tmp_path("serve_err.txt");
  const int port = spawn_and_find_port(
      "report " + journal + " --serve 0 --introspect-linger 60", err);
  ASSERT_GT(port, 0) << read_file(err);
  const std::string report = http_get(port, "/report");
  EXPECT_NE(report.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(report.find("per-turn breakdown"), std::string::npos);
  // The standard telemetry endpoints ride along with the mounted report.
  EXPECT_NE(http_get(port, "/metrics").find("HTTP/1.1 200 OK"),
            std::string::npos);
  EXPECT_NE(http_get(port, "/quitz").find("HTTP/1.1 200 OK"),
            std::string::npos);
}

TEST(Cli, InvalidIntrospectValuesRejected) {
  EXPECT_EQ(run("--introspect notaport gen list").exit_code, 2);
  EXPECT_EQ(run("--introspect 70000 gen list").exit_code, 2);
  EXPECT_EQ(run("--introspect-linger -1 gen list").exit_code, 2);
}

TEST(Cli, UsageMentionsIntrospect) {
  const auto r = run("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--introspect"), std::string::npos);
  EXPECT_NE(r.output.find("/quitz"), std::string::npos);
  EXPECT_NE(r.output.find("--serve"), std::string::npos);
}

}  // namespace
