// Debug-session flight recorder.
//
// Every DebugSession event — turn start/end, SCG evaluation, ICAP frame
// writes, emulated-cycle batches, trigger fires, trace-window freezes,
// snapshot/restore, resets — is appended as one typed SessionEvent to an
// in-memory ring and, when installed, streamed to a JSONL sink (one JSON
// object per line).  The journal is the session's replayable record:
// replay() re-drives the recorded turn sequence against the same
// OfflineResult and checks that every deterministic turn outcome (observed
// signals, bits changed, frames written) reproduces exactly.  Timing fields
// are re-measured on replay, never compared — wall-clock is not part of the
// contract.
//
// Hot-path cost: step() only bumps a pending-cycle counter; a kCycleBatch
// event is flushed at the next turn/trigger/reset boundary.  With the
// journal disabled every hook is one branch.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "support/status.h"

namespace fpgadbg::debug {

struct OfflineResult;

enum class SessionEventKind : std::uint8_t {
  kSessionStart,  ///< session constructed: count = trace lanes
  kTurnStart,     ///< observe() entered: signals = requested names
  kScgEval,       ///< SCG evaluated: bits/eval time, incremental flag
  kIcapWrite,     ///< DPR charged: frames (+ frame_ids when partial)
  kTurnEnd,       ///< observe() done: signals = per-lane observed, coverage
  kCycleBatch,    ///< count emulated cycles since the previous boundary
  kTriggerFire,   ///< trigger matched: count = trigger-relative fire cycle
  kTraceWindow,   ///< trace freeze: samples = captured window (newest last)
  kSnapshot,      ///< DUT state captured at `cycle`
  kRestore,       ///< DUT state restored at `cycle`
  kReset,         ///< session reset
};

const char* to_string(SessionEventKind kind);
std::optional<SessionEventKind> parse_session_event_kind(
    const std::string& name);

/// One journal record.  Field meaning depends on `kind` (see the enum);
/// unused fields stay value-initialized and are omitted from the JSONL form.
struct SessionEvent {
  SessionEventKind kind = SessionEventKind::kSessionStart;
  std::uint64_t seq = 0;    ///< monotonic per session (assigned on append)
  std::uint64_t turn = 0;   ///< owning turn index (turn-scoped events)
  std::uint64_t cycle = 0;  ///< session cycles emulated when emitted

  /// Causal join keys: the telemetry::TraceContext active when the event was
  /// emitted (0/0 when tracing was off).  Lets a recorded turn be joined
  /// against its Chrome-trace spans and JSON log lines; omitted from the
  /// JSONL form when zero and never compared by replay().
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  // kScgEval / kTurnEnd
  std::uint64_t bits_changed = 0;
  std::uint64_t bits_evaluated = 0;
  bool incremental = false;
  double scg_eval_seconds = 0.0;

  // kIcapWrite / kTurnEnd
  std::uint64_t frames = 0;  ///< frames written by this reconfiguration
  bool full = false;         ///< full configuration (frame_ids omitted)
  double reconfig_seconds = 0.0;
  std::vector<std::uint64_t> frame_ids;  ///< partial: frame addresses

  // kTurnEnd
  double turn_seconds = 0.0;
  double coverage = 0.0;  ///< signal-coverage fraction after the turn

  /// kTurnStart: requested signals; kTurnEnd: observed signal per lane.
  std::vector<std::string> signals;

  /// kSessionStart: lanes; kCycleBatch: cycles in the batch; kTriggerFire:
  /// trigger-relative fire cycle; kTraceWindow: samples stored in the frozen
  /// window (may exceed samples.size()); kSnapshot/kRestore: DUT cycle.
  std::uint64_t count = 0;

  /// kTraceWindow: one '0'/'1' string per sample, lane 0 first, newest last.
  std::vector<std::string> samples;
};

class SessionJournal {
 public:
  /// The in-memory ring holds at most `capacity` events and at most
  /// capacity * kBytesPerEvent bytes of them (event records plus their
  /// signal, frame and sample lists; 16 MiB by default), so its footprint
  /// does not grow with the turn rate or the lane count.  Beyond either
  /// bound the oldest events are dropped (counted in dropped_events()); the
  /// newest event is always kept.  The JSONL sink, once attached, sees
  /// every event regardless of eviction.
  explicit SessionJournal(std::size_t capacity = 1u << 16);
  static constexpr std::size_t kBytesPerEvent = 256;

  bool enabled() const { return enabled_; }
  /// Disabling stops recording entirely (events are neither ringed nor
  /// written to the sink); re-enabling resumes with the next event.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Installs (or, with nullptr, detaches) a JSONL sink.  Events already in
  /// the ring are written immediately so a sink attached after session
  /// construction still sees the constructor's initial turn; later events
  /// stream as they are appended.  The stream must outlive the journal or
  /// be detached first.
  void set_sink(std::ostream* sink);

  void append(SessionEvent event);

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t byte_budget() const { return capacity_ * kBytesPerEvent; }
  /// Bytes the ringed events hold, counted as the constructor describes.
  std::size_t bytes() const { return bytes_; }
  std::uint64_t total_events() const { return total_; }
  std::uint64_t dropped_events() const { return dropped_; }
  const std::deque<SessionEvent>& events() const { return events_; }
  void clear();

  /// One event as a single JSONL line (no trailing newline).
  static void write_event(std::ostream& os, const SessionEvent& event);
  /// Every ringed event, one line each.
  void write_all(std::ostream& os) const;

  /// Parses JSONL (one event per line; blank lines ignored) back into a
  /// journal.  A malformed line or unknown "ev" kind is a parse error.
  static support::Result<SessionJournal> load(std::istream& in);
  static support::Result<SessionJournal> load_file(const std::string& path);

 private:
  std::size_t capacity_;
  std::size_t bytes_ = 0;
  bool enabled_ = true;
  std::deque<SessionEvent> events_;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t next_seq_ = 0;
  std::ostream* sink_ = nullptr;
};

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

struct ReplayTurnCheck {
  std::uint64_t turn = 0;
  bool match = false;
  std::string detail;  ///< human-readable mismatch description ("" if match)
};

struct ReplayResult {
  std::size_t turns_checked = 0;
  std::size_t mismatches = 0;
  std::vector<ReplayTurnCheck> checks;
  bool ok() const { return mismatches == 0; }
};

/// Re-drives the journal's turn sequence (the requested signal sets, in
/// order) on a fresh DebugSession over the same OfflineResult and compares
/// each turn's deterministic outcome — observed signals, bits changed,
/// frames reconfigured, and (for partial turns) the exact frame set —
/// against the recording.  The SCG being a pure function of the parameter
/// assignment, any mismatch means the offline artifacts or the SCG changed
/// since the recording.
ReplayResult replay(const OfflineResult& offline,
                    const SessionJournal& recorded);

}  // namespace fpgadbg::debug
