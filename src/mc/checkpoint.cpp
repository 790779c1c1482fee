#include "mc/checkpoint.hpp"

#include <bit>

#include "util/rng.hpp"

namespace statleak {

namespace {

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  throw CheckpointError("checkpoint '" + path + "': " + why);
}

/// Payload bytes of one sample block: begin, count, then the f64 lanes.
std::size_t block_payload_bytes(std::uint64_t count) {
  return 16 + 2 * count * sizeof(double);
}

}  // namespace

std::uint64_t mc_checkpoint_hash(const Circuit& circuit,
                                 const VariationModel& var,
                                 const McConfig& config,
                                 std::span<const double> widths,
                                 const ProcessNode& node) {
  std::uint64_t h = 0x53544C4Bu;  // "STLK"
  const auto mix = [&h](std::uint64_t x) { h = mix64(h ^ x); };
  const auto mix_f64 = [&mix](double x) {
    mix(std::bit_cast<std::uint64_t>(x));
  };

  mix(kMcArithmeticRevision);
  mix(config.seed);
  mix(static_cast<std::uint64_t>(config.num_samples));
  mix(config.exact_delay ? 1 : 0);
  // The sampler kind and the importance shift both change every sampled
  // value, so resuming e.g. a Sobol run from a pseudo checkpoint must be
  // rejected. The control-variate flag is deliberately NOT mixed: it only
  // adds a derived side-channel and leaves the samples untouched.
  mix(static_cast<std::uint64_t>(config.sampler));
  mix_f64(config.is_shift.l_sigma);
  mix_f64(config.is_shift.v_sigma);

  mix(circuit.num_gates());
  for (GateId id = 0; id < circuit.num_gates(); ++id) {
    const Gate& g = circuit.gate(id);
    mix(static_cast<std::uint64_t>(g.kind));
    mix(static_cast<std::uint64_t>(g.vth));
    mix_f64(g.size);
  }

  mix_variation_constants(var, mix);

  mix(widths.size());
  for (double w : widths) mix_f64(w);

  // Every physical constant of the node changes the sampled values, so a
  // checkpoint is pinned to its environment corner (temperature, Vdd, node
  // flavor). The name is deliberately not mixed — only physics matters.
  mix_node_constants(node, mix);
  return h;
}

void validate_checkpoint_range(std::uint64_t begin, std::uint64_t count,
                               std::uint64_t num_samples) {
  if (count == 0) {
    throw CheckpointError("empty slot range at slot " + std::to_string(begin));
  }
  if (begin > num_samples || count > num_samples - begin) {
    throw CheckpointError("slot range " + std::to_string(begin) + "+" +
                          std::to_string(count) +
                          " overruns the population of " +
                          std::to_string(num_samples) + " samples");
  }
}

bool checkpoint_exists(const std::string& path) {
  return journal_exists(path);
}

CheckpointData load_checkpoint(const std::string& path,
                               std::uint64_t config_hash,
                               std::uint64_t num_samples) {
  const JournalContents journal =
      load_journal(path, mc_checkpoint_format(), config_hash, num_samples);

  CheckpointData data;
  data.num_samples = num_samples;
  data.dropped_tail_bytes = journal.dropped_tail_bytes;
  data.done.assign(num_samples, 0);
  data.delay_ps.assign(num_samples, 0.0);
  data.leakage_na.assign(num_samples, 0.0);

  for (const JournalRecord& rec : journal.records) {
    if (rec.kind != kMcSampleBlock) {
      reject(path, "unknown record kind " + std::to_string(rec.kind) +
                       " at byte " + std::to_string(rec.offset));
    }
    if (rec.payload.size() < 16) {
      reject(path, "sample block at byte " + std::to_string(rec.offset) +
                       " too short for its slot range");
    }
    const auto begin = get<std::uint64_t>(rec.payload.data());
    const auto count = get<std::uint64_t>(rec.payload.data() + 8);
    if (count == 0) {
      reject(path, "empty record at byte " + std::to_string(rec.offset));
    }
    if (begin > num_samples || count > num_samples - begin) {
      reject(path, "record at byte " + std::to_string(rec.offset) +
                       " overruns the population (slots " +
                       std::to_string(begin) + "+" + std::to_string(count) +
                       " of " + std::to_string(num_samples) + ")");
    }
    if (rec.payload.size() != block_payload_bytes(count)) {
      reject(path, "sample block at byte " + std::to_string(rec.offset) +
                       " has a malformed payload (" +
                       std::to_string(rec.payload.size()) + " bytes for " +
                       std::to_string(count) + " slots)");
    }
    const std::uint8_t* payload = rec.payload.data() + 16;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t slot = begin + i;
      data.delay_ps[slot] = get<double>(payload + i * sizeof(double));
      data.leakage_na[slot] =
          get<double>(payload + (count + i) * sizeof(double));
      if (data.done[slot] == 0) {
        data.done[slot] = 1;
        ++data.done_count;
      }
    }
  }
  return data;
}

// --- writer -----------------------------------------------------------------

struct CheckpointWriter::Impl {
  std::unique_ptr<JournalWriter> journal;
  std::uint64_t num_samples = 0;
};

CheckpointWriter::CheckpointWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}

CheckpointWriter::~CheckpointWriter() = default;

std::unique_ptr<CheckpointWriter> CheckpointWriter::create(
    const std::string& path, std::uint64_t config_hash,
    std::uint64_t num_samples) {
  auto impl = std::make_unique<Impl>();
  impl->num_samples = num_samples;
  impl->journal = JournalWriter::create(path, mc_checkpoint_format(),
                                        config_hash, num_samples);
  return std::unique_ptr<CheckpointWriter>(
      new CheckpointWriter(std::move(impl)));
}

std::unique_ptr<CheckpointWriter> CheckpointWriter::resume(
    const std::string& path, std::uint64_t config_hash,
    std::uint64_t num_samples) {
  auto impl = std::make_unique<Impl>();
  impl->num_samples = num_samples;
  impl->journal = JournalWriter::resume(path, mc_checkpoint_format(),
                                        config_hash, num_samples);
  return std::unique_ptr<CheckpointWriter>(
      new CheckpointWriter(std::move(impl)));
}

void CheckpointWriter::append(std::uint64_t begin,
                              std::span<const double> delay,
                              std::span<const double> leak) {
  STATLEAK_ASSERT(delay.size() == leak.size(),
                  "checkpoint record needs paired delay/leakage spans");
  if (delay.empty()) return;
  validate_checkpoint_range(begin, delay.size(), impl_->num_samples);

  const std::uint64_t count = delay.size();
  std::vector<std::uint8_t> payload;
  payload.reserve(block_payload_bytes(count));
  put<std::uint64_t>(payload, begin);
  put<std::uint64_t>(payload, count);
  for (double d : delay) put<double>(payload, d);
  for (double l : leak) put<double>(payload, l);
  impl_->journal->append(kMcSampleBlock, payload.data(), payload.size());
}

bool CheckpointWriter::healthy() const { return impl_->journal->healthy(); }

std::uint64_t CheckpointWriter::records_appended() const {
  return impl_->journal->records_appended();
}

}  // namespace statleak
