/// \file protocol.hpp
/// \brief Wire protocol of the distributed campaign runner.
///
/// Line-delimited JSON over a byte stream (a pipe to a pooled worker
/// process, or a TCP socket): one message per '\n'-terminated line, each a
/// single JSON object with a "type" member. Numbers are rendered by
/// obs::Json with std::to_chars shortest-round-trip form and parsed with
/// std::from_chars, so every finite double crosses the wire bit-exactly —
/// the foundation of the byte-identical distributed merge. (The one
/// exception: obs::Json normalizes -0.0 to "0"; sample delays and leakages
/// are strictly positive, so no transmitted value can hit it.) Non-finite
/// sample values (possible under --health quarantine) become JSON null and
/// decode to a quiet NaN; the finalize pass excises those slots before any
/// statistic, so their exact bit pattern never matters.
///
/// Messages (see docs/DISTRIBUTED.md for the full exchange):
///
///   coordinator -> worker
///     {"type":"setup", "protocol":1, "bench":..., "circuit":...,
///      "impl":..., "node":100, "threads":1, "t_max_ps":...,
///      "mc":{...engine config...}}
///     {"type":"shard", "begin":B, "end":E}
///     {"type":"stop"}
///
///   worker -> coordinator
///     {"type":"hello", "protocol":1}
///     {"type":"block", "begin":B, "delay":[...], "leak":[...]}
///     {"type":"shard_done", "begin":B, "end":E, "completed":true,
///      "samples_done":N}
///     {"type":"bye", "registry":{...obs snapshot...}}
///     {"type":"error", "message":"..."}

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/driver.hpp"
#include "obs/json.hpp"
#include "util/error.hpp"

namespace statleak::dist {

/// Distributed-runner failure the campaign cannot recover from: every
/// worker lost, a protocol violation, a transport that cannot be set up.
/// The CLI maps it to exit code 6.
class DistError : public Error {
 public:
  using Error::Error;
};

/// v2 added the environment corner (node_name/temp/vdd/sigma_scale) to the
/// setup message, so mixed-version fleets reject the handshake rather than
/// silently sampling at different corners. v3 dropped the setup message's
/// scalar-vs-batched engine switch when the scalar Monte-Carlo engine was
/// retired. v4 marks the in-repo exp of the leakage kernel (util/exp.hpp):
/// a v3 worker's leakage bits differ, so it must not join a v4 campaign.
/// v5 marks the in-repo erfc (util/erfc.hpp): a v4 worker's Sobol draws
/// and SSTA yields differ.
inline constexpr int kProtocolVersion = 5;

// --- framing ----------------------------------------------------------------

/// One line-delimited JSON peer over a file descriptor. Reading is
/// buffered and incremental (feed() consumes whatever the fd has without
/// blocking past one read()); writing is blocking and thread-safe enough
/// for the worker's concurrent block sink when externally serialized.
/// The stream never owns reconnection: a closed peer turns every further
/// operation into eof().
class MessageStream {
 public:
  MessageStream(int read_fd, int write_fd)
      : read_fd_(read_fd), write_fd_(write_fd) {}

  int read_fd() const { return read_fd_; }

  /// Serializes + writes one message line. Returns false (and latches
  /// eof) when the peer is gone (EPIPE/ECONNRESET); throws DistError on
  /// other I/O errors.
  bool send(const obs::Json& message);

  /// Reads whatever the fd has ready into the line buffer (one read()
  /// call; returns false when the peer closed or errored). Call when
  /// poll() reports readability.
  bool feed();

  /// Pops the next complete buffered message, if any. Throws DistError on
  /// a line that is not a JSON object.
  std::optional<obs::Json> next_message();

  /// Blocks (up to timeout_ms, -1 = forever) until a message is available
  /// or the peer closes; returns nullopt on timeout/EOF.
  std::optional<obs::Json> read_message(int timeout_ms);

  bool eof() const { return eof_; }

 private:
  int read_fd_;
  int write_fd_;
  std::string buffer_;
  bool eof_ = false;
};

// --- message builders / parsers ---------------------------------------------

/// Everything a worker needs before it can compute any shard. `input`
/// carries the netlist (and any sidecar) inline as text, so workers parse
/// the same bytes the coordinator read, wherever they run.
struct WorkerSetup {
  api::StudyInput input;
  McConfig mc;          ///< fully resolved (importance shift numeric)
  double t_max_ps = 0.0;
  int threads = 1;      ///< worker-local thread count
};

obs::Json setup_message(const WorkerSetup& setup);
WorkerSetup parse_setup(const obs::Json& msg);

obs::Json hello_message();
obs::Json shard_message(std::uint64_t begin, std::uint64_t end);
obs::Json stop_message();

obs::Json block_message(std::uint64_t begin, std::span<const double> delay,
                        std::span<const double> leak);
/// Decoded block: values local to [begin, begin + delay.size()).
struct Block {
  std::uint64_t begin = 0;
  std::vector<double> delay_ps;
  std::vector<double> leakage_na;
};
Block parse_block(const obs::Json& msg);

obs::Json shard_done_message(std::uint64_t begin, std::uint64_t end,
                             bool completed, std::uint64_t samples_done);
obs::Json bye_message(obs::Json registry_snapshot);
obs::Json error_message(const std::string& what);

/// The "type" member, or "" when absent/not a string.
std::string message_type(const obs::Json& msg);

}  // namespace statleak::dist
