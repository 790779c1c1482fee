#include "opt/checkpoint.hpp"

#include <bit>

#include "util/rng.hpp"

namespace statleak {

namespace {

std::uint64_t f64_bits(double x) { return std::bit_cast<std::uint64_t>(x); }

constexpr std::size_t kMovePayloadBytes = 24;
constexpr std::size_t kCompletePayloadBytes = 32;

}  // namespace

std::uint64_t opt_checkpoint_hash(const Circuit& circuit,
                                  const CellLibrary& lib,
                                  const VariationModel& var,
                                  const OptConfig& config) {
  std::uint64_t h = 0x534C4F50u;  // "SLOP"
  const auto mix = [&h](std::uint64_t x) { h = mix64(h ^ x); };
  const auto mix_f64 = [&mix](double x) { mix(f64_bits(x)); };

  // Constraint/objective configuration: anything that steers the greedy
  // search. Threads/deadline/cadence are trajectory-invariant and
  // deliberately NOT mixed.
  mix(config.seed);
  mix_f64(config.t_max_ps);
  mix_f64(config.yield_target);
  mix_f64(config.leakage_percentile);
  mix_f64(config.max_iterations_factor);
  mix(static_cast<std::uint64_t>(config.assignment_rounds));

  // Circuit topology. The implementation point (vth/size) is NOT mixed:
  // the optimizer resets it on entry, so it never shapes the trajectory.
  mix(circuit.num_gates());
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    mix(static_cast<std::uint64_t>(g.kind));
    mix(g.fanins.size());
    for (GateId f : g.fanins) mix(f);
    mix(circuit.is_output(id) ? 1 : 0);
  }

  // The cell library: the discrete size grid plus every physical constant
  // of the node (both pin every delay/leakage figure the scans price).
  mix(lib.size_steps().size());
  for (double s : lib.size_steps()) mix_f64(s);
  mix_node_constants(lib.node(), mix);
  mix_variation_constants(var, mix);
  return h;
}

struct OptJournal::MoveRecord {
  OptPhase phase = OptPhase::kSizing;
  OptMoveKind kind = OptMoveKind::kNone;
  bool accepted = false;
  std::uint32_t iteration = 0;
  std::uint32_t gate = kInvalidGate;
  std::uint32_t step = 0;
  double new_size = 0.0;
};

OptJournal::OptJournal(std::string path, std::uint64_t config_hash,
                       const Circuit& circuit, int checkpoint_every)
    : path_(std::move(path)), checkpoint_every_(checkpoint_every) {
  STATLEAK_CHECK(checkpoint_every_ >= 1,
                 "optimizer checkpoint cadence must be >= 1");
  const std::uint64_t meta = circuit.num_gates();
  if (journal_exists(path_)) {
    JournalContents contents =
        load_journal(path_, opt_checkpoint_format(), config_hash, meta);
    records_ = std::move(contents.records);
    resumed_ = !records_.empty();
    writer_ =
        JournalWriter::resume(path_, opt_checkpoint_format(), config_hash,
                              meta);
  } else {
    writer_ =
        JournalWriter::create(path_, opt_checkpoint_format(), config_hash,
                              meta);
  }
}

OptJournal::~OptJournal() = default;

bool OptJournal::replaying() const { return next_ < records_.size(); }

void OptJournal::diverge(const std::string& why) const {
  throw CheckpointError("checkpoint '" + path_ + "': replay divergence at record " +
                        std::to_string(next_) + ": " + why +
                        " — the journal was not produced by this run "
                        "configuration; delete it or point --checkpoint "
                        "elsewhere");
}

OptJournal::MoveRecord OptJournal::decode_move(
    const JournalRecord& rec) const {
  if (rec.payload.size() != kMovePayloadBytes) {
    throw CheckpointError("checkpoint '" + path_ +
                          "': malformed move record at byte " +
                          std::to_string(rec.offset));
  }
  const std::uint8_t* p = rec.payload.data();
  MoveRecord m;
  m.phase = static_cast<OptPhase>(p[0]);
  m.kind = static_cast<OptMoveKind>(p[1]);
  m.accepted = p[2] != 0;
  m.iteration = get<std::uint32_t>(p + 4);
  m.gate = get<std::uint32_t>(p + 8);
  m.step = get<std::uint32_t>(p + 12);
  m.new_size = get<double>(p + 16);
  if (p[0] > 2 || p[1] > 5) {
    throw CheckpointError("checkpoint '" + path_ +
                          "': malformed move record at byte " +
                          std::to_string(rec.offset) +
                          " (unknown phase or move kind)");
  }
  return m;
}

void OptJournal::verify_snapshot(const JournalRecord& rec,
                                 const Circuit& circuit) const {
  const std::size_t n = circuit.num_gates();
  if (rec.payload.size() != 8 + n * (1 + sizeof(double)) ||
      get<std::uint64_t>(rec.payload.data()) != n) {
    throw CheckpointError("checkpoint '" + path_ +
                          "': malformed snapshot record at byte " +
                          std::to_string(rec.offset));
  }
  const std::uint8_t* vths = rec.payload.data() + 8;
  const std::uint8_t* sizes = vths + n;
  for (GateId id = 0; id < n; ++id) {
    const Gate& g = circuit.gate(id);
    const bool vth_ok = vths[id] == static_cast<std::uint8_t>(g.vth);
    const bool size_ok =
        get<std::uint64_t>(sizes + id * sizeof(double)) == f64_bits(g.size);
    if (!vth_ok || !size_ok) {
      diverge("implementation snapshot mismatch at gate " +
              std::to_string(id));
    }
  }
}

void OptJournal::consume_snapshots(const Circuit& circuit) {
  while (replaying() && records_[next_].kind == kOptSnapshotRecord) {
    verify_snapshot(records_[next_], circuit);
    ++next_;
  }
}

bool OptJournal::replay_scan(OptPhase phase, int iteration,
                             OptScanOutcome& out) {
  STATLEAK_ASSERT(!pending_, "unconfirmed replayed scan outcome");
  if (!replaying()) return false;
  const JournalRecord& rec = records_[next_];
  if (rec.kind != kOptMoveRecord) {
    diverge("expected a move record at a scan site, found kind " +
            std::to_string(rec.kind));
  }
  const MoveRecord m = decode_move(rec);
  if (m.phase != phase ||
      m.iteration != static_cast<std::uint32_t>(iteration)) {
    diverge("scan site is phase " +
            std::to_string(static_cast<int>(phase)) + " iteration " +
            std::to_string(iteration) + ", record says phase " +
            std::to_string(static_cast<int>(m.phase)) + " iteration " +
            std::to_string(m.iteration));
  }
  out.kind = m.kind;
  out.gate = m.gate;
  out.step = m.step;
  out.new_size = m.new_size;
  pending_ = true;
  return true;
}

void OptJournal::record_decision(OptPhase phase, int iteration,
                                 OptMoveKind kind, GateId gate,
                                 std::uint32_t step, double new_size,
                                 bool accepted, const Circuit& circuit) {
  if (pending_) {
    const MoveRecord m = decode_move(records_[next_]);
    if (m.kind != kind || m.gate != gate || m.step != step ||
        f64_bits(m.new_size) != f64_bits(new_size)) {
      diverge("replayed move does not match the re-executed decision");
    }
    if (m.accepted != accepted) {
      diverge("re-executed accept verdict (" +
              std::string(accepted ? "accepted" : "rejected") +
              ") contradicts the journal");
    }
    pending_ = false;
    ++next_;
    ++moves_replayed_;
    consume_snapshots(circuit);
  } else {
    append_move(phase, iteration, kind, gate, step, new_size, accepted);
    if (accepted && (++commits_ % checkpoint_every_) == 0) {
      append_snapshot(circuit);
    }
    return;
  }
  if (accepted) ++commits_;
}

void OptJournal::record_no_candidate(OptPhase phase, int iteration,
                                     const Circuit& circuit) {
  record_decision(phase, iteration, OptMoveKind::kNone, kInvalidGate, 0, 0.0,
                  /*accepted=*/false, circuit);
}

void OptJournal::record_complete(const OptResult& result,
                                 const Circuit& circuit) {
  STATLEAK_ASSERT(!pending_, "unconfirmed replayed scan outcome");
  if (replaying()) {
    consume_snapshots(circuit);
  }
  if (replaying()) {
    const JournalRecord& rec = records_[next_];
    if (rec.kind != kOptCompleteRecord) {
      diverge("schedule completed but the journal holds more decisions");
    }
    if (rec.payload.size() != kCompletePayloadBytes) {
      throw CheckpointError("checkpoint '" + path_ +
                            "': malformed completion record at byte " +
                            std::to_string(rec.offset));
    }
    const std::uint8_t* p = rec.payload.data();
    const bool match =
        get<std::int32_t>(p) == result.iterations &&
        get<std::int32_t>(p + 4) == result.sizing_commits &&
        get<std::int32_t>(p + 8) == result.hvt_commits &&
        get<std::int32_t>(p + 12) == result.downsize_commits &&
        get<std::int32_t>(p + 16) == result.rejected_moves &&
        (p[20] != 0) == result.feasible &&
        get<std::uint64_t>(p + 24) == f64_bits(result.final_objective);
    if (!match) diverge("completion summary mismatch");
    ++next_;
    if (replaying()) diverge("records remain after the completion record");
    return;
  }
  // Live completion: one last snapshot, then the terminal record. A resumed
  // run of a completed journal replays everything and appends nothing.
  append_snapshot(circuit);
  std::vector<std::uint8_t> payload;
  payload.reserve(kCompletePayloadBytes);
  put<std::int32_t>(payload, result.iterations);
  put<std::int32_t>(payload, result.sizing_commits);
  put<std::int32_t>(payload, result.hvt_commits);
  put<std::int32_t>(payload, result.downsize_commits);
  put<std::int32_t>(payload, result.rejected_moves);
  put<std::uint8_t>(payload, result.feasible ? 1 : 0);
  put<std::uint8_t>(payload, 0);
  put<std::uint8_t>(payload, 0);
  put<std::uint8_t>(payload, 0);
  put<double>(payload, result.final_objective);
  writer_->append(kOptCompleteRecord, payload.data(), payload.size());
}

void OptJournal::append_move(OptPhase phase, int iteration, OptMoveKind kind,
                             GateId gate, std::uint32_t step, double new_size,
                             bool accepted) {
  std::vector<std::uint8_t> payload;
  payload.reserve(kMovePayloadBytes);
  put<std::uint8_t>(payload, static_cast<std::uint8_t>(phase));
  put<std::uint8_t>(payload, static_cast<std::uint8_t>(kind));
  put<std::uint8_t>(payload, accepted ? 1 : 0);
  put<std::uint8_t>(payload, 0);
  put<std::uint32_t>(payload, static_cast<std::uint32_t>(iteration));
  put<std::uint32_t>(payload, gate);
  put<std::uint32_t>(payload, step);
  put<double>(payload, new_size);
  writer_->append(kOptMoveRecord, payload.data(), payload.size());
}

void OptJournal::append_snapshot(const Circuit& circuit) {
  const std::size_t n = circuit.num_gates();
  std::vector<std::uint8_t> payload;
  payload.reserve(8 + n * (1 + sizeof(double)));
  put<std::uint64_t>(payload, n);
  for (GateId id = 0; id < n; ++id) {
    put<std::uint8_t>(payload,
                      static_cast<std::uint8_t>(circuit.gate(id).vth));
  }
  for (GateId id = 0; id < n; ++id) {
    put<double>(payload, circuit.gate(id).size);
  }
  writer_->append(kOptSnapshotRecord, payload.data(), payload.size());
  ++snapshots_appended_;
}

std::int64_t OptJournal::records_appended() const {
  return static_cast<std::int64_t>(writer_->records_appended());
}

bool OptJournal::healthy() const { return writer_->healthy(); }

}  // namespace statleak
