/// \file registry.hpp
/// \brief Observability primitives: counters, gauges, phase timers and
///        trace streams behind a thread-safe Registry.
///
/// Design rules:
///
///   * Null-sink fast path. Every instrumentation site holds a
///     `Registry*` that may be null; with no registry attached the only
///     cost is a pointer test (no clock reads, no locks, no allocation),
///     which keeps the optimizer and Monte-Carlo hot loops within noise
///     of the uninstrumented build (pinned by bench_obs_overhead).
///   * Read-only observation. Instrumentation never feeds back into the
///     computation, so results are bit-identical with and without a
///     registry attached (pinned by obs_test).
///   * Per-thread accumulation. Shard workers accumulate into a local
///     `LocalCounter` and merge into the registry once on scope exit, so
///     the parallel_for workers of util/parallel.hpp never contend on the
///     registry mutex inside their loops.
///
/// The collected state is emitted as a versioned JSON run report by
/// obs/report.hpp.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace statleak::obs {

/// One snapshot in a named trace stream: an optimizer iteration or a
/// Monte-Carlo progress milestone. Unused fields stay at their defaults
/// (e.g. the deterministic optimizer has no yield; MC has no commits).
struct TraceEvent {
  std::int64_t step = 0;    ///< iteration index / cumulative sample count
  std::string phase;        ///< phase label ("sizing", "assign", ...)
  double objective = 0.0;   ///< optimizer objective [nA] / running mean leakage
  double yield = 0.0;       ///< timing yield at the snapshot (SSTA), if any
  double delay_ps = 0.0;    ///< delay figure at the snapshot, if any
  std::int64_t commits = 0; ///< cumulative accepted moves
  std::int64_t rejected = 0;///< cumulative rejected moves
};

/// Accumulated wall time of one named phase.
struct PhaseTime {
  std::string name;
  double seconds = 0.0;
  std::int64_t calls = 0;  ///< number of ScopedTimer scopes merged in
};

/// Thread-safe sink for counters, gauges, phase times, trace events and a
/// config echo. One Registry describes one run; attach it to the engines
/// you want observed and emit it with obs/report.hpp afterwards.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // ------------------------------------------------------------ writers --
  /// Adds `delta` to the named monotonic counter (created at 0).
  void add(std::string_view counter, double delta);
  /// Sets the named gauge (last write wins).
  void set_gauge(std::string_view gauge, double value);
  /// Adds one timed scope to the named phase. Phases keep first-seen
  /// order, so repeated scopes (e.g. boost rounds) accumulate in place.
  /// `calls` is how many scopes the contribution represents — 1 for a
  /// ScopedTimer; snapshot merges (obs/snapshot.hpp) pass the remote call
  /// count through.
  void add_phase_s(std::string_view phase, double seconds,
                   std::int64_t calls = 1);
  /// Appends an event to the named trace stream.
  void trace(std::string_view stream, TraceEvent event);

  /// Echoes a config key into the report. String values are emitted as
  /// JSON strings; the numeric/boolean overloads as bare JSON tokens.
  void note_config(std::string_view key, std::string_view value);
  void note_config_num(std::string_view key, double value);
  void note_config_num(std::string_view key, std::int64_t value);
  void note_config_num(std::string_view key, bool value);

  /// Flags the run as incomplete (deadline expiry, quarantine-triggered
  /// abort, ...). Emitted by the run report as `"completed": false` plus
  /// `"incomplete_reason"`. The first reason wins; later calls are ignored
  /// so the engine that stopped the run names it.
  void mark_incomplete(std::string_view reason);

  // ------------------------------------------------------------ readers --
  /// Counters, sorted by name.
  std::vector<std::pair<std::string, double>> counters() const;
  /// Gauges, sorted by name.
  std::vector<std::pair<std::string, double>> gauges() const;
  /// Phase times in first-recorded order.
  std::vector<PhaseTime> phases() const;
  /// Trace stream names, sorted.
  std::vector<std::string> trace_streams() const;
  /// A copy of one trace stream (empty if absent).
  std::vector<TraceEvent> trace_events(std::string_view stream) const;
  /// Config echo entries sorted by key; `.second.second` is true when the
  /// value is a pre-rendered bare JSON token rather than a string.
  std::vector<std::pair<std::string, std::pair<std::string, bool>>> config()
      const;

  /// Single counter / gauge lookup (0 / NaN-free: returns fallback when
  /// absent). Convenience for tests and report assembly.
  double counter_value(std::string_view name, double fallback = 0.0) const;
  double gauge_value(std::string_view name, double fallback = 0.0) const;

  /// True unless mark_incomplete() was called.
  bool completed() const;
  /// The first mark_incomplete() reason; empty for completed runs.
  std::string incomplete_reason() const;

 private:
  mutable std::mutex mutex_;
  bool completed_ = true;
  std::string incomplete_reason_;
  std::map<std::string, double, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::vector<PhaseTime> phases_;  ///< small; linear scan keyed by name
  std::map<std::string, std::vector<TraceEvent>, std::less<>> traces_;
  std::map<std::string, std::pair<std::string, bool>, std::less<>> config_;
};

/// Accumulates locally and merges into the registry once, on scope exit
/// (or never, when constructed with a null registry). The increment path
/// is a plain double add — safe and cheap inside sharded worker loops.
class LocalCounter {
 public:
  LocalCounter(Registry* registry, const char* name)
      : registry_(registry), name_(name) {}
  ~LocalCounter() { flush(); }
  LocalCounter(const LocalCounter&) = delete;
  LocalCounter& operator=(const LocalCounter&) = delete;

  void add(double delta = 1.0) { pending_ += delta; }
  double pending() const { return pending_; }

  /// Merges the pending total now (idempotent: resets the local sum).
  void flush() {
    if (registry_ != nullptr && pending_ != 0.0) {
      registry_->add(name_, pending_);
      pending_ = 0.0;
    }
  }

 private:
  Registry* registry_;
  const char* name_;
  double pending_ = 0.0;
};

/// Accumulates many short timed scopes of one phase on one worker and
/// merges them into the registry once, on scope exit — the phase-time
/// counterpart of LocalCounter. Each start()/stop() pair is one call. With a
/// null registry start() and stop() do nothing, not even a clock read.
class LocalPhase {
 public:
  LocalPhase(Registry* registry, const char* phase)
      : registry_(registry), phase_(phase) {}
  ~LocalPhase() { flush(); }
  LocalPhase(const LocalPhase&) = delete;
  LocalPhase& operator=(const LocalPhase&) = delete;

  void start() {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  void stop() {
    if (registry_ == nullptr) return;
    seconds_ += std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    ++calls_;
  }

  /// Merges the pending total now (idempotent: resets the local sums).
  void flush() {
    if (registry_ != nullptr && calls_ != 0) {
      registry_->add_phase_s(phase_, seconds_, calls_);
      seconds_ = 0.0;
      calls_ = 0;
    }
  }

 private:
  Registry* registry_;
  const char* phase_;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = 0.0;
  std::int64_t calls_ = 0;
};

/// Times one phase scope. With a null registry the constructor and
/// destructor do nothing at all — not even a clock read.
class ScopedTimer {
 public:
  ScopedTimer(Registry* registry, const char* phase)
      : registry_(registry), phase_(phase) {
    if (registry_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Records the elapsed time now instead of at scope exit (idempotent).
  void stop() {
    if (registry_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    registry_->add_phase_s(
        phase_, std::chrono::duration<double>(end - start_).count());
    registry_ = nullptr;
  }

 private:
  Registry* registry_;
  const char* phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace statleak::obs
