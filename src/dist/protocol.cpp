#include "dist/protocol.hpp"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include <poll.h>
#include <unistd.h>

namespace statleak::dist {

namespace {

[[noreturn]] void protocol_error(const std::string& why) {
  throw DistError("campaign protocol: " + why);
}

double number_or_nan(const obs::Json& v) {
  // JSON cannot express non-finite doubles; the emitter renders them as
  // null. The quarantine machinery excises those slots downstream, so any
  // quiet NaN is an equivalent stand-in.
  if (v.is_null()) return std::numeric_limits<double>::quiet_NaN();
  return v.as_number();
}

std::uint64_t u64_field(const obs::Json& msg, const char* key) {
  const double v = msg.at(key).as_number();
  if (!(v >= 0.0) || std::floor(v) != v) {
    protocol_error(std::string(key) + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

// --- framing ----------------------------------------------------------------

bool MessageStream::send(const obs::Json& message) {
  if (eof_) return false;
  std::string line = message.dump(/*indent=*/0);
  line.push_back('\n');
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::write(write_fd_, line.data() + off, line.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      eof_ = true;
      return false;
    }
    throw DistError(std::string("campaign transport write failed: ") +
                    std::strerror(errno));
  }
  return true;
}

bool MessageStream::feed() {
  if (eof_) return false;
  char chunk[1 << 16];
  const ssize_t n = ::read(read_fd_, chunk, sizeof(chunk));
  if (n > 0) {
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
  eof_ = true;  // clean close (0) or hard error both end the peer
  return false;
}

std::optional<obs::Json> MessageStream::next_message() {
  const std::size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  const std::string line = buffer_.substr(0, nl);
  buffer_.erase(0, nl + 1);
  if (line.empty()) return next_message();  // tolerate blank keep-alives
  obs::Json msg;
  try {
    msg = obs::Json::parse(line);
  } catch (const Error& e) {
    // A peer speaking garbage is a protocol violation, not an input error.
    protocol_error(std::string("bad message line: ") + e.what());
  }
  if (!msg.is_object()) protocol_error("message is not a JSON object");
  return msg;
}

std::optional<obs::Json> MessageStream::read_message(int timeout_ms) {
  for (;;) {
    if (auto msg = next_message()) return msg;
    if (eof_) return std::nullopt;
    pollfd pfd{read_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return std::nullopt;  // timeout
    if (!feed() && buffer_.find('\n') == std::string::npos) {
      return std::nullopt;  // peer closed with no complete line left
    }
  }
}

// --- message builders / parsers ---------------------------------------------

obs::Json setup_message(const WorkerSetup& setup) {
  obs::Json mc = obs::Json::object();
  mc.set("seed", static_cast<double>(setup.mc.seed));
  mc.set("samples", setup.mc.num_samples);
  mc.set("exact_delay", setup.mc.exact_delay);
  mc.set("batch", setup.mc.batch_size);
  mc.set("health",
         setup.mc.health_policy == HealthPolicy::kQuarantine ? "quarantine"
                                                             : "fail");
  mc.set("sampler", to_string(setup.mc.sampler));
  mc.set("is_l", setup.mc.is_shift.l_sigma);
  mc.set("is_v", setup.mc.is_shift.v_sigma);
  mc.set("cv", setup.mc.control_variate);
  mc.set("checkpoint_every", setup.mc.checkpoint_every);

  obs::Json msg = obs::Json::object();
  msg.set("type", "setup");
  msg.set("protocol", kProtocolVersion);
  msg.set("bench", setup.input.bench_text);
  msg.set("circuit", setup.input.circuit_name);
  msg.set("impl", setup.input.impl_text);
  msg.set("node", setup.input.node_nm);
  msg.set("node_name", setup.input.node_name);
  msg.set("temp_k", setup.input.temperature_k);
  msg.set("vdd_v", setup.input.vdd_v);
  msg.set("sigma_scale", setup.input.sigma_scale);
  msg.set("threads", setup.threads);
  msg.set("t_max_ps", setup.t_max_ps);
  msg.set("mc", std::move(mc));
  return msg;
}

WorkerSetup parse_setup(const obs::Json& msg) {
  const double proto = msg.at("protocol").as_number();
  if (proto != kProtocolVersion) {
    protocol_error("version mismatch (peer speaks " +
                   obs::format_json_number(proto) + ", this build speaks " +
                   std::to_string(kProtocolVersion) + ")");
  }
  WorkerSetup setup;
  setup.input.bench_text = msg.at("bench").as_string();
  setup.input.circuit_name = msg.at("circuit").as_string();
  setup.input.impl_text = msg.at("impl").as_string();
  setup.input.node_nm = static_cast<int>(msg.at("node").as_number());
  setup.input.node_name = msg.at("node_name").as_string();
  setup.input.temperature_k = msg.at("temp_k").as_number();
  setup.input.vdd_v = msg.at("vdd_v").as_number();
  setup.input.sigma_scale = msg.at("sigma_scale").as_number();
  setup.threads = static_cast<int>(msg.at("threads").as_number());
  setup.t_max_ps = msg.at("t_max_ps").as_number();

  const obs::Json& mc = msg.at("mc");
  setup.mc.seed = u64_field(mc, "seed");
  setup.mc.num_samples = static_cast<int>(mc.at("samples").as_number());
  setup.mc.exact_delay = mc.at("exact_delay").as_bool();
  setup.mc.batch_size = static_cast<int>(mc.at("batch").as_number());
  const std::string& health = mc.at("health").as_string();
  if (health == "fail") {
    setup.mc.health_policy = HealthPolicy::kFail;
  } else if (health == "quarantine") {
    setup.mc.health_policy = HealthPolicy::kQuarantine;
  } else {
    protocol_error("unknown health policy '" + health + "'");
  }
  const std::string& sampler = mc.at("sampler").as_string();
  if (sampler == "pseudo") {
    setup.mc.sampler = McSampler::kPseudo;
  } else if (sampler == "sobol") {
    setup.mc.sampler = McSampler::kSobol;
  } else {
    protocol_error("unknown sampler '" + sampler + "'");
  }
  setup.mc.is_shift.l_sigma = mc.at("is_l").as_number();
  setup.mc.is_shift.v_sigma = mc.at("is_v").as_number();
  setup.mc.control_variate = mc.at("cv").as_bool();
  setup.mc.checkpoint_every =
      static_cast<int>(mc.at("checkpoint_every").as_number());
  // Workers never own a deadline or a checkpoint file: the coordinator
  // enforces the budget (stop message) and persists committed blocks.
  setup.mc.deadline_ms = 0;
  setup.mc.checkpoint_path.clear();
  setup.mc.num_threads = setup.threads;
  return setup;
}

obs::Json hello_message() {
  obs::Json msg = obs::Json::object();
  msg.set("type", "hello");
  msg.set("protocol", kProtocolVersion);
  return msg;
}

obs::Json shard_message(std::uint64_t begin, std::uint64_t end) {
  obs::Json msg = obs::Json::object();
  msg.set("type", "shard");
  msg.set("begin", static_cast<double>(begin));
  msg.set("end", static_cast<double>(end));
  return msg;
}

obs::Json stop_message() {
  obs::Json msg = obs::Json::object();
  msg.set("type", "stop");
  return msg;
}

obs::Json block_message(std::uint64_t begin, std::span<const double> delay,
                        std::span<const double> leak) {
  obs::Json delays = obs::Json::array();
  for (double d : delay) delays.push_back(d);
  obs::Json leaks = obs::Json::array();
  for (double l : leak) leaks.push_back(l);
  obs::Json msg = obs::Json::object();
  msg.set("type", "block");
  msg.set("begin", static_cast<double>(begin));
  msg.set("delay", std::move(delays));
  msg.set("leak", std::move(leaks));
  return msg;
}

Block parse_block(const obs::Json& msg) {
  Block block;
  block.begin = u64_field(msg, "begin");
  const obs::JsonArray& delay = msg.at("delay").as_array();
  const obs::JsonArray& leak = msg.at("leak").as_array();
  if (delay.size() != leak.size() || delay.empty()) {
    protocol_error("block needs matching non-empty delay/leak arrays");
  }
  block.delay_ps.reserve(delay.size());
  for (const obs::Json& v : delay) block.delay_ps.push_back(number_or_nan(v));
  block.leakage_na.reserve(leak.size());
  for (const obs::Json& v : leak) {
    block.leakage_na.push_back(number_or_nan(v));
  }
  return block;
}

obs::Json shard_done_message(std::uint64_t begin, std::uint64_t end,
                             bool completed, std::uint64_t samples_done) {
  obs::Json msg = obs::Json::object();
  msg.set("type", "shard_done");
  msg.set("begin", static_cast<double>(begin));
  msg.set("end", static_cast<double>(end));
  msg.set("completed", completed);
  msg.set("samples_done", static_cast<double>(samples_done));
  return msg;
}

obs::Json bye_message(obs::Json registry_snapshot) {
  obs::Json msg = obs::Json::object();
  msg.set("type", "bye");
  msg.set("registry", std::move(registry_snapshot));
  return msg;
}

obs::Json error_message(const std::string& what) {
  obs::Json msg = obs::Json::object();
  msg.set("type", "error");
  msg.set("message", what);
  return msg;
}

std::string message_type(const obs::Json& msg) {
  const obs::Json* type = msg.find("type");
  if (type == nullptr || !type->is_string()) return "";
  return type->as_string();
}

}  // namespace statleak::dist
