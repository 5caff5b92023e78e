// Flight-recorder tests: event capture, JSONL round-trip, deterministic
// replay, coverage analytics and frame-churn accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "bitstream/churn.h"
#include "debug/coverage.h"
#include "debug/flow.h"
#include "debug/journal.h"
#include "debug/session.h"
#include "genbench/genbench.h"
#include "sim/trigger.h"
#include "support/rng.h"
#include "support/telemetry.h"
#include "testutil/json_lite.h"

namespace fpgadbg::debug {
namespace {

using netlist::Netlist;

Netlist small_user(std::uint64_t seed) {
  genbench::CircuitSpec spec{"jrnl" + std::to_string(seed), 8, 6, 4, 36, 3, 5,
                             seed};
  return genbench::generate(spec);
}

OfflineOptions small_options() {
  OfflineOptions options;
  options.instrument.trace_width = 6;
  return options;
}

/// Runs a few deterministic debugging turns + emulation cycles.
void drive_session(DebugSession& session, const OfflineResult& offline,
                   std::size_t turns, std::size_t cycles_per_turn) {
  const auto& lanes = offline.instrumented.lane_signals;
  Rng rng(7);
  const std::size_t num_inputs =
      offline.instrumented.netlist.inputs().size();
  for (std::size_t t = 0; t < turns; ++t) {
    const auto& lane = lanes[t % lanes.size()];
    session.observe({lane[t % lane.size()]});
    for (std::size_t c = 0; c < cycles_per_turn; ++c) {
      std::vector<bool> inputs;
      for (std::size_t i = 0; i < num_inputs; ++i) {
        inputs.push_back(rng.next_bool());
      }
      session.step(inputs);
    }
  }
}

std::size_t count_kind(const SessionJournal& journal, SessionEventKind kind) {
  std::size_t n = 0;
  for (const SessionEvent& e : journal.events()) n += e.kind == kind;
  return n;
}

TEST(Journal, RecordsTheSessionEventStream) {
  const auto offline = run_offline(small_user(1), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 3, 16);
  session.observe({});  // flushes the last cycle batch via the turn boundary

  const SessionJournal& j = session.journal();
  // Constructor turn + 3 driven turns + the flush turn.
  EXPECT_EQ(count_kind(j, SessionEventKind::kSessionStart), 1u);
  EXPECT_EQ(count_kind(j, SessionEventKind::kTurnStart), 5u);
  EXPECT_EQ(count_kind(j, SessionEventKind::kScgEval), 5u);
  EXPECT_EQ(count_kind(j, SessionEventKind::kIcapWrite), 5u);
  EXPECT_EQ(count_kind(j, SessionEventKind::kTurnEnd), 5u);
  EXPECT_EQ(count_kind(j, SessionEventKind::kCycleBatch), 3u);

  // Cycle batches account for every emulated cycle.
  std::uint64_t batched = 0;
  for (const SessionEvent& e : j.events()) {
    if (e.kind == SessionEventKind::kCycleBatch) batched += e.count;
  }
  EXPECT_EQ(batched, 48u);
  EXPECT_EQ(session.summary().cycles_emulated, 48u);

  // seq is dense and monotonic.
  std::uint64_t expect_seq = 0;
  for (const SessionEvent& e : j.events()) {
    EXPECT_EQ(e.seq, expect_seq++);
  }
  EXPECT_EQ(j.total_events(), expect_seq);
  EXPECT_EQ(j.dropped_events(), 0u);
}

TEST(Journal, DisabledJournalRecordsNothing) {
  const auto offline = run_offline(small_user(1), small_options());
  DebugSession session(offline);
  session.journal().clear();
  session.journal().set_enabled(false);
  drive_session(session, offline, 2, 8);
  EXPECT_EQ(session.journal().size(), 0u);
  EXPECT_EQ(session.journal().total_events(), 0u);
}

TEST(Journal, RingDropsOldestBeyondCapacity) {
  SessionJournal j(4);
  for (int i = 0; i < 7; ++i) {
    SessionEvent e;
    e.kind = SessionEventKind::kCycleBatch;
    e.count = static_cast<std::uint64_t>(i);
    j.append(std::move(e));
  }
  EXPECT_EQ(j.size(), 4u);
  EXPECT_EQ(j.total_events(), 7u);
  EXPECT_EQ(j.dropped_events(), 3u);
  EXPECT_EQ(j.events().front().count, 3u);  // 0..2 evicted
  EXPECT_EQ(j.events().back().seq, 6u);
}

TEST(Journal, RingDropsOldestBeyondByteBudget) {
  // Each event carries a 100-signal list (a few KiB); the byte bound of a
  // 64-event ring (16 KiB) holds only a few of them.
  SessionJournal j(64);
  for (int i = 0; i < 10; ++i) {
    SessionEvent e;
    e.kind = SessionEventKind::kTurnStart;
    e.signals.assign(100, "n" + std::to_string(i));
    j.append(std::move(e));
  }
  EXPECT_LE(j.bytes(), j.byte_budget());
  EXPECT_GE(j.size(), 2u);
  EXPECT_LT(j.size(), 10u);
  EXPECT_EQ(j.dropped_events() + j.size(), 10u);
  EXPECT_EQ(j.events().back().signals.front(), "n9");  // newest kept
  j.clear();
  EXPECT_EQ(j.bytes(), 0u);
}

TEST(Journal, SinkAttachedLateCatchesUpAndStreams) {
  const auto offline = run_offline(small_user(2), small_options());
  DebugSession session(offline);
  std::ostringstream sink;
  // Attached after construction: the constructor's turn-0 events must be
  // caught up immediately.
  session.journal().set_sink(&sink);
  const std::string after_attach = sink.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(after_attach.begin(), after_attach.end(), '\n')),
            session.journal().size());
  drive_session(session, offline, 2, 4);
  session.journal().set_sink(nullptr);
  const std::string after_detach = sink.str();
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(after_detach.begin(), after_detach.end(), '\n')),
            session.journal().size());
}

TEST(Journal, JsonlRoundTripIsExact) {
  const auto offline = run_offline(small_user(3), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 3, 8);
  sim::Trigger trigger(std::string(session.num_lanes(), 'x'), 2);
  session.run(trigger, [&](std::uint64_t) {
    return std::vector<bool>(offline.instrumented.netlist.inputs().size());
  }, 16);

  std::ostringstream dump;
  session.journal().write_all(dump);

  // Every line parses as a standalone JSON object with the envelope keys.
  std::istringstream lines(dump.str());
  std::string line;
  while (std::getline(lines, line)) {
    const auto obj = testutil::parse_json(line);
    ASSERT_TRUE(obj.is_object());
    ASSERT_TRUE(obj.find("ev"));
    ASSERT_TRUE(obj.find("seq"));
    ASSERT_TRUE(obj.find("turn"));
    ASSERT_TRUE(obj.find("cycle"));
  }

  std::istringstream in(dump.str());
  const auto loaded = SessionJournal::load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const auto& events = loaded.value().events();
  const auto& original = session.journal().events();
  ASSERT_EQ(events.size(), original.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SessionEvent& a = original[i];
    const SessionEvent& b = events[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.turn, b.turn);
    EXPECT_EQ(a.cycle, b.cycle);
    EXPECT_EQ(a.signals, b.signals);
    EXPECT_EQ(a.frame_ids, b.frame_ids);
    EXPECT_EQ(a.samples, b.samples);
    switch (a.kind) {
      case SessionEventKind::kScgEval:
        EXPECT_EQ(a.bits_changed, b.bits_changed);
        EXPECT_EQ(a.bits_evaluated, b.bits_evaluated);
        EXPECT_EQ(a.incremental, b.incremental);
        // %.17g writes doubles bit-exactly.
        EXPECT_EQ(a.scg_eval_seconds, b.scg_eval_seconds);
        break;
      case SessionEventKind::kIcapWrite:
        EXPECT_EQ(a.frames, b.frames);
        EXPECT_EQ(a.full, b.full);
        EXPECT_EQ(a.reconfig_seconds, b.reconfig_seconds);
        break;
      case SessionEventKind::kTurnEnd:
        EXPECT_EQ(a.bits_changed, b.bits_changed);
        EXPECT_EQ(a.frames, b.frames);
        EXPECT_EQ(a.turn_seconds, b.turn_seconds);
        EXPECT_EQ(a.coverage, b.coverage);
        break;
      default:
        EXPECT_EQ(a.count, b.count);
        break;
    }
  }
}

TEST(Journal, TraceIdsRoundTripAndStampUnderActiveSpan) {
  // Events journaled while a trace span is active carry its causal ids;
  // events journaled outside any span omit them (and load back as zero).
  telemetry::clear_trace();
  telemetry::start_tracing();
  SessionJournal j(16);
  {
    telemetry::TraceScope span("journal_test.turn");
    const telemetry::TraceContext ctx = telemetry::current_trace_context();
    ASSERT_TRUE(ctx.active());
    SessionEvent e;
    e.kind = SessionEventKind::kTurnStart;
    e.trace_id = ctx.trace_id;
    e.span_id = ctx.span_id;
    j.append(e);
  }
  telemetry::stop_tracing();
  SessionEvent plain;
  plain.kind = SessionEventKind::kCycleBatch;
  plain.count = 3;
  j.append(plain);
  telemetry::clear_trace();

  std::ostringstream dump;
  j.write_all(dump);
  std::istringstream lines(dump.str());
  std::string first, second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  EXPECT_NE(first.find("\"trace_id\":"), std::string::npos) << first;
  EXPECT_NE(first.find("\"span_id\":"), std::string::npos) << first;
  EXPECT_EQ(second.find("\"trace_id\""), std::string::npos) << second;

  std::istringstream in(dump.str());
  const auto loaded = SessionJournal::load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const auto& events = loaded.value().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, j.events()[0].trace_id);
  EXPECT_EQ(events[0].span_id, j.events()[0].span_id);
  EXPECT_NE(events[0].trace_id, 0u);
  EXPECT_EQ(events[1].trace_id, 0u);
  EXPECT_EQ(events[1].span_id, 0u);
}

TEST(Journal, SessionTurnEventsCarryTheTurnSpanIds) {
  const auto offline = run_offline(small_user(9), small_options());
  telemetry::clear_trace();
  telemetry::start_tracing();
  DebugSession session(offline);
  drive_session(session, offline, 2, 4);
  telemetry::stop_tracing();
  telemetry::clear_trace();
  // Every turn-scoped event carries the same nonzero trace id within one
  // turn (observe() opens the debug.turn span before journaling).
  std::uint64_t turn_trace = 0;
  for (const SessionEvent& e : session.journal().events()) {
    if (e.kind == SessionEventKind::kTurnStart) {
      EXPECT_NE(e.trace_id, 0u);
      turn_trace = e.trace_id;
    }
    if (e.kind == SessionEventKind::kScgEval ||
        e.kind == SessionEventKind::kTurnEnd) {
      EXPECT_EQ(e.trace_id, turn_trace);
    }
  }
}

TEST(Journal, MalformedLineIsAParseError) {
  std::istringstream in("{\"ev\":\"turn_start\",\"seq\":0}\nnot json\n");
  const auto loaded = SessionJournal::load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kParseError);
}

TEST(Journal, UnknownEventKindIsAParseError) {
  std::istringstream in("{\"ev\":\"warp_drive\",\"seq\":0}\n");
  const auto loaded = SessionJournal::load(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), support::StatusCode::kParseError);
}

TEST(Replay, ReproducesTheRecordedSession) {
  const auto offline = run_offline(small_user(4), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 4, 0);

  const ReplayResult result = replay(offline, session.journal());
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.turns_checked, 5u);  // constructor turn + 4 driven
  for (const auto& check : result.checks) {
    EXPECT_TRUE(check.match) << "turn " << check.turn << ": " << check.detail;
  }
}

TEST(Replay, SurvivesAJsonlRoundTrip) {
  const auto offline = run_offline(small_user(5), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 3, 0);

  std::ostringstream dump;
  session.journal().write_all(dump);
  std::istringstream in(dump.str());
  const auto loaded = SessionJournal::load(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(replay(offline, loaded.value()).ok());
}

TEST(Replay, DetectsATamperedRecording) {
  const auto offline = run_offline(small_user(6), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 2, 0);

  // Forge the recording: inflate one turn's frame count.
  SessionJournal forged;
  for (SessionEvent e : session.journal().events()) {
    if (e.kind == SessionEventKind::kTurnEnd && e.turn == 1) {
      e.frames += 1;
    }
    forged.append(std::move(e));
  }
  const ReplayResult result = replay(offline, forged);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.mismatches, 1u);
}

TEST(Replay, FlagsARingEvictedRecordingAsIncomplete) {
  const auto offline = run_offline(small_user(6), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 2, 0);

  // Keep only the last few events: turn 0 is gone, so the turn sequence no
  // longer starts at 0 and replay must refuse rather than mis-align.
  SessionJournal truncated(3);
  for (SessionEvent e : session.journal().events()) {
    truncated.append(std::move(e));
  }
  const ReplayResult result = replay(offline, truncated);
  EXPECT_FALSE(result.ok());
}

TEST(Journal, TriggerFireEventCarriesTheFireCycle) {
  const auto offline = run_offline(small_user(7), small_options());
  DebugSession session(offline);
  // Fires on the first sample, then 3 post-trigger cycles.
  sim::Trigger trigger(std::string(session.num_lanes(), 'x'), 3);
  const auto [cycles, fired] = session.run(
      trigger,
      [&](std::uint64_t) {
        return std::vector<bool>(
            offline.instrumented.netlist.inputs().size());
      },
      64);
  ASSERT_TRUE(fired);
  EXPECT_EQ(cycles, 4u);

  const SessionJournal& j = session.journal();
  ASSERT_EQ(count_kind(j, SessionEventKind::kTriggerFire), 1u);
  ASSERT_EQ(count_kind(j, SessionEventKind::kTraceWindow), 1u);
  for (const SessionEvent& e : j.events()) {
    if (e.kind == SessionEventKind::kTriggerFire) {
      EXPECT_EQ(e.count, trigger.fire_cycle());
      EXPECT_EQ(e.cycle, 4u);  // session cycles when the run stopped
    }
    if (e.kind == SessionEventKind::kTraceWindow) {
      EXPECT_EQ(e.count, 4u);  // frozen samples
      ASSERT_EQ(e.samples.size(), 4u);
      for (const std::string& s : e.samples) {
        EXPECT_EQ(s.size(), session.num_lanes());
        EXPECT_EQ(s.find_first_not_of("01"), std::string::npos);
      }
    }
  }
}

TEST(Journal, SnapshotRestoreAndResetAreRecorded) {
  const auto offline = run_offline(small_user(7), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 1, 8);
  const auto snap = session.snapshot();
  drive_session(session, offline, 0, 0);
  session.restore(snap);
  session.reset();

  const SessionJournal& j = session.journal();
  EXPECT_EQ(count_kind(j, SessionEventKind::kSnapshot), 1u);
  EXPECT_EQ(count_kind(j, SessionEventKind::kRestore), 1u);
  EXPECT_EQ(count_kind(j, SessionEventKind::kReset), 1u);
  for (const SessionEvent& e : j.events()) {
    if (e.kind == SessionEventKind::kSnapshot ||
        e.kind == SessionEventKind::kRestore) {
      EXPECT_EQ(e.count, snap.cycle);
    }
  }
}

// ---------------------------------------------------------------------------
// CoverageTracker
// ---------------------------------------------------------------------------

TEST(Coverage, TracksFractionAndCurve) {
  CoverageTracker cov({"a", "b", "c", "d"});
  EXPECT_EQ(cov.observable(), 4u);
  EXPECT_DOUBLE_EQ(cov.note_turn({"a"}), 0.25);
  EXPECT_DOUBLE_EQ(cov.note_turn({"a", "b"}), 0.5);  // re-observing is free
  EXPECT_DOUBLE_EQ(cov.note_turn({"c", "d"}), 1.0);
  EXPECT_TRUE(cov.has_observed("b"));
  EXPECT_FALSE(CoverageTracker({"x"}).has_observed("x"));
  const std::vector<double> expect{0.25, 0.5, 1.0};
  EXPECT_EQ(cov.curve(), expect);
}

TEST(Coverage, UnknownSignalsGrowTheUniverse) {
  CoverageTracker cov({"a"});
  cov.note_turn({"mystery"});
  EXPECT_EQ(cov.observable(), 2u);
  EXPECT_EQ(cov.observed(), 1u);
}

TEST(Coverage, RollupAggregatesByHierarchicalPrefix) {
  CoverageTracker cov({"core.alu.add", "core.alu.sub", "core.fpu.mul",
                       "io.uart.tx"});
  cov.note_turn({"core.alu.add", "io.uart.tx"});

  const auto rollup = cov.rollup();
  auto find = [&](const std::string& prefix)
      -> const CoverageTracker::PrefixCoverage* {
    for (const auto& p : rollup) {
      if (p.prefix == prefix) return &p;
    }
    return nullptr;
  };
  const auto* root = find("");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->observable, 4u);
  EXPECT_EQ(root->observed, 2u);
  const auto* core = find("core");
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->observable, 3u);
  EXPECT_EQ(core->observed, 1u);
  const auto* alu = find("core.alu");
  ASSERT_NE(alu, nullptr);
  EXPECT_EQ(alu->observable, 2u);
  EXPECT_EQ(alu->observed, 1u);
  EXPECT_DOUBLE_EQ(alu->fraction(), 0.5);
  const auto* uart = find("io.uart");
  ASSERT_NE(uart, nullptr);
  EXPECT_EQ(uart->observed, 1u);
  // Sorted, "" first.
  EXPECT_EQ(rollup.front().prefix, "");
  EXPECT_TRUE(std::is_sorted(
      rollup.begin(), rollup.end(),
      [](const auto& a, const auto& b) { return a.prefix < b.prefix; }));
}

TEST(Coverage, SessionGaugesMatchTheTracker) {
  const auto offline = run_offline(small_user(8), small_options());
  DebugSession session(offline);
  drive_session(session, offline, 3, 0);
  const CoverageTracker& cov = session.coverage();
  EXPECT_GT(cov.observable(), 0u);
  EXPECT_GT(cov.observed(), 0u);
  EXPECT_EQ(cov.curve().size(), 4u);  // constructor turn + 3
  // The curve never decreases.
  EXPECT_TRUE(std::is_sorted(cov.curve().begin(), cov.curve().end()));
}

// ---------------------------------------------------------------------------
// FrameChurn
// ---------------------------------------------------------------------------

TEST(Churn, CountsFullAndPartialWrites) {
  bitstream::FrameChurn churn;
  churn.record_full(4);
  churn.record_partial({1, 2, 1});
  EXPECT_EQ(churn.total_writes(), 7u);
  EXPECT_EQ(churn.reconfigurations(), 2u);
  EXPECT_EQ(churn.frames_touched(), 4u);
  const auto hot = churn.top(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].frame, 1u);
  EXPECT_EQ(hot[0].writes, 3u);
  EXPECT_EQ(hot[1].frame, 2u);
  EXPECT_EQ(hot[1].writes, 2u);
  churn.clear();
  EXPECT_EQ(churn.total_writes(), 0u);
  EXPECT_EQ(churn.frames_touched(), 0u);
}

TEST(Churn, SessionChurnMatchesTurnReports) {
  const auto offline = run_offline(small_user(9), small_options());
  DebugSession session(offline);
  // The constructor's full configuration writes every frame once.
  std::uint64_t expect_writes = offline.pconf
                                    ? session.churn().total_writes()
                                    : 0;
  EXPECT_EQ(session.churn().reconfigurations(), 1u);

  const auto& lanes = offline.instrumented.lane_signals;
  for (std::size_t t = 0; t < 4; ++t) {
    const auto& lane = lanes[t % lanes.size()];
    const auto report = session.observe({lane[(t + 1) % lane.size()]});
    expect_writes += report.frames_reconfigured;
  }
  EXPECT_EQ(session.churn().total_writes(), expect_writes);
  EXPECT_EQ(session.churn().reconfigurations(), 5u);
}

}  // namespace
}  // namespace fpgadbg::debug
