// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times every call it makes into a library module through a
// Tracer.  With tracing off a scope only reads the clock; with tracing on it
// also appends a Span.  Spans nest by scope, so each one knows its parent.
//
// Span names are "<layer>.<what>": the text before the first '.' names the
// layer that owns the time (map, pnr, bitstream, ...).  Two prefixes are
// special:
//   - "shadow." marks a re-execution the traced run makes only to measure a
//     layer from outside (for example map::tcon_map called directly next to
//     the pipeline that also ran it).  Shadow time is tracing overhead, not
//     user work.
//   - a derived span (add_derived) splits a finished span into the layers the
//     shadow calls measured.  It carries no clock reads of its own.
//
// Self time of a span is its duration minus the durations of its direct
// children.  Summed per layer over a window, self times plus the time no
// top-level span covers give back the window's wall time: an identity of the
// bookkeeping, not a measurement.  perfbench_driver reconciles the layer times
// against the untraced pass instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;      ///< index into Tracer::names()
  std::int32_t parent = -1;    ///< index of the enclosing span, -1 at top
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SelfTimes {
  std::map<std::string, double> by_layer;  ///< seconds of self time
  double covered = 0.0;  ///< seconds covered by top-level spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Times one call.  Always measures; records a span only when enabled.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span (idempotent) and returns its duration in seconds.
    double close();
    /// Index of the recorded span, -1 when tracing is off.
    std::int32_t index() const { return index_; }

   private:
    Tracer& tracer_;
    std::int64_t start_ns_;
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
    double seconds_ = -1.0;
  };

  /// Runs `fn` inside a scope named `name` and adds its duration to `*acc`.
  template <typename Fn>
  decltype(auto) timed(const char* name, double* acc, Fn&& fn) {
    Scope scope(*this, name);
    struct Add {
      Scope& s;
      double* acc;
      ~Add() {
        const double d = s.close();
        if (acc != nullptr) *acc += d;
      }
    } add{scope, acc};
    return fn();
  }

  /// Splits finished span `parent` into children laid end to end from its
  /// start, one per (name, seconds) part.  Parts that would run past the
  /// parent's end are scaled down together so children never exceed it.
  void add_derived(std::int32_t parent,
                   const std::vector<std::pair<const char*, double>>& parts);
  /// Per name of a span add_derived split: how many it split, and how many
  /// of those it had to scale down because the shadow parts outran the span.
  struct Splits {
    std::size_t splits = 0, scaled = 0;
  };
  const std::map<std::string, Splits>& derived() const { return derived_; }

  /// Marks the start of a measured window; returns the first span index in
  /// it.
  std::size_t mark() const { return spans_.size(); }
  /// Self time per layer over the spans recorded since `first`.
  SelfTimes self_times(std::size_t first) const;

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Writes the first `max_spans` spans as a Chrome trace (chrome://tracing,
  /// Perfetto) plus, in its metadata, total and self seconds per span name
  /// over every span.  Returns false on IO failure.
  bool write_chrome_trace(const std::string& path,
                          std::size_t max_spans) const;

 private:
  std::uint32_t intern(const char* name);

  bool enabled_;
  std::int32_t open_ = -1;  ///< innermost open span
  std::map<std::string, Splits> derived_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_index_;
};

/// "map.tcon_map" -> "map"; "shadow.map.tcon_map" -> "shadow".
std::string layer_of(const std::string& span_name);

}  // namespace perfbench
