#include "dist/worker.hpp"

#include <csignal>
#include <mutex>
#include <optional>
#include <utility>

#include <unistd.h>

#include "dist/net.hpp"
#include "dist/protocol.hpp"
#include "mc/checkpoint.hpp"
#include "obs/snapshot.hpp"

namespace statleak::dist {

namespace {

/// Computes one shard, streaming completed blocks as protocol messages.
/// The block sink runs concurrently on shard worker threads — one mutex
/// serializes the stream writes (the same discipline CheckpointWriter
/// uses for its file).
void compute_shard(const api::LoadedStudy& study, const McConfig& mc,
                   std::uint64_t begin, std::uint64_t end,
                   MessageStream& stream, std::mutex& send_mutex,
                   obs::Registry* obs) {
  const McBlockSink sink = [&](std::uint64_t block_begin,
                               std::span<const double> delay,
                               std::span<const double> leak) {
    const std::lock_guard<std::mutex> lock(send_mutex);
    stream.send(block_message(block_begin, delay, leak));
  };
  const McShardResult res = run_monte_carlo_shard(
      study.circuit, study.lib, study.var, mc, begin, end, sink, obs);
  const std::lock_guard<std::mutex> lock(send_mutex);
  stream.send(shard_done_message(res.begin, res.end, res.completed,
                                 res.samples_done));
}

}  // namespace

int run_worker(const WorkerOptions& options, obs::Registry* obs) {
  // A coordinator that died mid-send must surface as EOF, not SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  int read_fd = STDIN_FILENO;
  int write_fd = STDOUT_FILENO;
  int socket_fd = -1;
  if (!options.connect.empty()) {
    socket_fd = connect_tcp(options.connect);
    read_fd = socket_fd;
    write_fd = socket_fd;
  } else if (!options.stdio) {
    throw DistError("worker needs --stdio or --connect host:port");
  }

  MessageStream stream(read_fd, write_fd);
  std::mutex send_mutex;
  obs::Registry local_registry;
  obs::Registry& registry = obs != nullptr ? *obs : local_registry;
  int exit_code = 0;

  {
    const std::lock_guard<std::mutex> lock(send_mutex);
    stream.send(hello_message());
  }

  std::optional<api::LoadedStudy> study;
  McConfig mc;
  try {
    for (;;) {
      const std::optional<obs::Json> msg = stream.read_message(-1);
      if (!msg) break;  // coordinator gone — nothing left to work for
      const std::string type = message_type(*msg);
      if (type == "setup") {
        const WorkerSetup setup = parse_setup(*msg);
        // Shards run one at a time on this thread, and each builds and
        // drops its own FlatCircuit views, so no view of the old circuit
        // outlives this replacement.
        study.emplace(api::load_study(setup.input));
        mc = setup.mc;
        if (options.threads_override > 0) {
          mc.num_threads = options.threads_override;
        }
        registry.note_config("dist.role", "worker");
      } else if (type == "shard") {
        if (!study) throw DistError("shard before setup");
        const auto begin = static_cast<std::uint64_t>(
            msg->at("begin").as_number());
        const auto end = static_cast<std::uint64_t>(
            msg->at("end").as_number());
        validate_checkpoint_range(begin, end - begin,
                                  static_cast<std::uint64_t>(
                                      mc.num_samples));
        registry.add("dist.shards_computed", 1.0);
        compute_shard(*study, mc, begin, end, stream, send_mutex,
                      &registry);
      } else if (type == "stop") {
        const std::lock_guard<std::mutex> lock(send_mutex);
        stream.send(bye_message(obs::registry_snapshot(registry)));
        break;
      } else {
        throw DistError("unexpected message '" + type + "'");
      }
    }
  } catch (const Error& e) {
    // Report upstream (best effort — the transport may already be gone),
    // then exit like the single-host CLI would: input/numerical errors are
    // exit 3.
    const std::lock_guard<std::mutex> lock(send_mutex);
    stream.send(error_message(e.what()));
    exit_code = 3;
  }

  if (socket_fd >= 0) ::close(socket_fd);
  return exit_code;
}

}  // namespace statleak::dist
