// Workload hfl-tcp-ha: the flat TCP coordinator over loopback with three
// participant threads, every epoch checkpointed to a CheckpointStore and
// replicated to a hot standby. The primary halts at the end of a fixed late
// epoch and is killed; the standby's lease expires, it promotes, the
// participants fail over, and the successor warm-starts from the replicated
// state and finishes the run. net (framing, CRC, transport), ckpt (commit
// of an image that grows with t) and the epoch log / standby do most of the
// work; nn does little.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/hfl_resume.h"
#include "ckpt/store.h"
#include "core/phi_accumulator.h"
#include "data/paper_datasets.h"
#include "data/partition.h"
#include "hfl/fed_sgd.h"
#include "net/coordinator.h"
#include "net/messages.h"
#include "net/participant_node.h"
#include "net/socket.h"
#include "net/standby.h"
#include "net/wire.h"
#include "nn/mlp.h"
#include "seams.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace digfl;

constexpr size_t kParticipants = 3;
constexpr size_t kSamplesPerShard = 16;
constexpr size_t kValidationSamples = 48;
constexpr size_t kEpochs = 16;
// The primary halts after everything of this epoch is committed and
// replicated; the successor resumes at the next one.
constexpr size_t kHaltEpoch = 11;
constexpr double kLearningRate = 0.5;
constexpr size_t kFeatures = 32;
// {32, 256, 10}: d = 11,018 parameters.
const std::vector<size_t> kLayers = {kFeatures, 256, 10};
// Failover timing: the standby promotes after this much replication
// silence (the program's default lease; a 300 ms lease promoted the standby
// early whenever a checkpoint commit stalled on this host's disk);
// participants redial with equal-jitter backoff in this range.
constexpr int kLeaseTimeoutMs = 1000;
constexpr int kBackoffInitialMs = 10;
constexpr int kBackoffMaxMs = 40;
constexpr int kAssemblyTimeoutMs = 30000;

struct World {
  Mlp model{kLayers};
  std::vector<HflParticipant> participants;
  Dataset validation;
  Vec init;
  FedSgdConfig config;
  uint64_t digest = 0;
};

World MakeWorld(uint64_t seed) {
  const size_t pool = kParticipants * kSamplesPerShard + kValidationSamples;
  PaperDatasetOptions data_options;
  data_options.sample_fraction = static_cast<double>(pool) / 70000.0;
  data_options.seed = seed;
  PaperDatasetSpec spec = Unwrap(
      MakePaperDataset(PaperDatasetId::kMnist, data_options), "MNIST data");
  Rng rng(seed ^ 0x7cb);
  auto split = Unwrap(
      SplitHoldout(spec.data,
                   static_cast<double>(kValidationSamples) / pool, rng),
      "holdout split");
  std::vector<Dataset> shards =
      Unwrap(PartitionIid(split.first, kParticipants, rng), "partition");
  World world;
  world.validation = std::move(split.second);
  for (size_t i = 0; i < kParticipants; ++i) {
    world.participants.emplace_back(i, std::move(shards[i]));
  }
  world.init = Unwrap(world.model.InitParams(rng), "init params");
  world.config.epochs = kEpochs;
  world.config.learning_rate = kLearningRate;
  world.digest = net::FederationConfigDigest(
      world.model.NumParams(), kEpochs, kLearningRate,
      world.config.lr_decay, world.config.local_steps, seed);
  return world;
}

// Participant threads, dialing the primary first and the successor's
// reserved port second.
class Fleet {
 public:
  Fleet(const World& world, const Model& model,
        const std::vector<net::ParticipantEndpoint>& endpoints)
      : statuses_(kParticipants, Status::OK()) {
    for (size_t i = 0; i < kParticipants; ++i) {
      net::ParticipantNodeOptions options;
      options.endpoints = endpoints;
      options.participant_id = i;
      options.config_digest = world.digest;
      options.max_connect_attempts = 1000;
      options.connect_backoff.initial_ms = kBackoffInitialMs;
      options.connect_backoff.max_ms = kBackoffMaxMs;
      threads_.emplace_back([this, i, options, &world, &model] {
        net::ParticipantNode node(model, world.participants[i], options);
        statuses_[i] = node.Run();
      });
    }
  }
  ~Fleet() { Join(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Joins every node; the first node error, if any.
  Status Join() {
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
    for (const Status& status : statuses_) {
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

 private:
  std::vector<Status> statuses_;
  std::vector<std::thread> threads_;
};

// The hot standby and its watch thread.
class Standby {
 public:
  explicit Standby(const World& world) {
    net::StandbyOptions options;
    options.config_digest = world.digest;
    options.primary_generation = 1;
    options.lease_timeout_ms = kLeaseTimeoutMs;
    standby_ = Unwrap(net::StandbyCoordinator::Create(options), "standby");
    watcher_ = std::thread([this] { outcome_ = standby_->Run(); });
  }
  ~Standby() {
    if (watcher_.joinable()) {
      standby_->Stop();
      watcher_.join();
    }
  }
  Standby(const Standby&) = delete;
  Standby& operator=(const Standby&) = delete;

  uint16_t port() const { return standby_->port(); }

  // Blocks until the watch ends (lease expiry after the primary's death).
  net::StandbyOutcome Await() {
    watcher_.join();
    return Unwrap(std::move(outcome_), "standby watch");
  }

 private:
  std::unique_ptr<net::StandbyCoordinator> standby_;
  Result<net::StandbyOutcome> outcome_ = net::StandbyOutcome{};
  std::thread watcher_;
};

struct Outputs {
  HflTrainingLog log;           // the successor's final log
  std::vector<double> phi_total;  // the successor's accumulator
  uint64_t resumed_epoch = 0;
  // Newest checkpoint left in the store, decoded.
  uint64_t newest_epoch = 0;
  std::vector<double> newest_phi_total;
  std::vector<std::vector<double>> newest_phi_per_epoch;
};

struct RoundTimes {
  double setup_s = 0;
  double run_s = 0;
  double recover_s = 0;
  std::vector<double> primary_epoch_s;
  // Traced runs only.
  double detect_s = 0, reassembly_s = 0, warmstart_s = 0;
  double training_s = 0;  // inside the two RunFederatedTraining calls
  double round_s = 0;     // Σ per-epoch broadcast→collect windows
  double server_nn_s = 0;
  ModelTotals nn;         // nodes and server together
  std::vector<double> commit_s;
  std::vector<uint64_t> image_bytes;
  uint64_t net_bytes_out = 0, net_bytes_in = 0, send_calls = 0;
  double send_s = 0, recv_wait_s = 0;
  double commit_self_s = 0;
  double repl_send_s = 0, repl_ack_wait_s = 0;
  uint64_t repl_bytes_first = 0, repl_bytes_last = 0;
  uint64_t training_bytes_out = 0, training_bytes_in = 0;
};

// Per-run decorator state (traced runs only).
struct Tracing {
  ModelSeams node_nn;
  ModelSeams server_nn;
  NetSeams net;
  SeamStats commit;
  TimedModel node_model;
  TimedModel server_model;
  TimedTransport transport;

  explicit Tracing(const World& world)
      : node_model(world.model, kFeatures, &node_nn),
        server_model(world.model, kFeatures, &server_nn),
        transport(net::TcpTransport(), &net) {}
};

// Totals of the byte-stream and commit seams, for per-round differences.
struct SeamSnapshot {
  uint64_t bytes_out = 0, bytes_in = 0, send_calls = 0;
  double send_s = 0, recv_s = 0, repl_send_s = 0, repl_recv_s = 0,
         commit_self_s = 0;

  static SeamSnapshot Of(const Tracing& t) {
    SeamSnapshot s;
    s.bytes_out = t.net.participant.bytes_out;
    s.bytes_in = t.net.participant.bytes_in;
    s.send_calls = t.net.participant.send.calls;
    s.send_s = t.net.participant.send.SelfSeconds();
    s.recv_s = t.net.participant.recv.SelfSeconds();
    s.repl_send_s = t.net.standby.send.SelfSeconds();
    s.repl_recv_s = t.net.standby.recv.SelfSeconds();
    s.commit_self_s = t.commit.SelfSeconds();
    return s;
  }
};

uint16_t ReservePort() {
  // Bind-then-release of an ephemeral port, so the participants can carry
  // the successor's address before it exists.
  return Unwrap(net::TcpListener::Listen(0), "port reservation").port();
}

// Σ over epochs of (last participant-channel op end − first op start) for
// ops starting inside each epoch, epochs delimited by `bounds`.
double CollectWindows(const std::vector<NetSeams::Op>& ops,
                      const std::vector<Clock::time_point>& bounds) {
  double total = 0;
  for (size_t e = 0; e + 1 < bounds.size(); ++e) {
    std::optional<Clock::time_point> first, last;
    for (const NetSeams::Op& op : ops) {
      if (op.start < bounds[e] || op.start >= bounds[e + 1]) continue;
      if (!first || op.start < *first) first = op.start;
      if (!last || op.end > *last) last = op.end;
    }
    if (first) total += Seconds(*first, *last);
  }
  return total;
}

// One operation: a full federated run with a primary kill in it, from the
// first broadcast to the final φ̂ totals. Set-up (standby, primary, fleet
// assembly) precedes the clock; `setup_s` reports it.
Outputs RunRound(const World& world, const std::string& dir, Tracing* trace,
                 RoundTimes* times) {
  const Clock::time_point setup_start = Clock::now();
  const Model& node_model =
      trace ? static_cast<const Model&>(trace->node_model) : world.model;
  const Model& server_model =
      trace ? static_cast<const Model&>(trace->server_model) : world.model;
  net::Transport* transport = trace ? &trace->transport : nullptr;
  std::filesystem::remove_all(dir);

  HflServer server(server_model, world.validation);
  Standby standby(world);
  // Declared before the coordinators so that, when a step throws, they are
  // destroyed (and their participants released) before the fleet is joined.
  std::optional<Fleet> fleet;
  // Participant-channel byte counts are taken from before each coordinator
  // exists: a channel's CommMeter record includes its connection preamble
  // and Hello/HelloAck exchange, which it charges to the first epoch the
  // channel serves.
  const uint64_t out0 = trace ? trace->net.participant.bytes_out.load() : 0;
  const uint64_t in0 = trace ? trace->net.participant.bytes_in.load() : 0;
  const uint16_t successor_port = ReservePort();
  net::CoordinatorOptions primary_options;
  primary_options.transport = transport;
  primary_options.num_participants = kParticipants;
  primary_options.config_digest = world.digest;
  primary_options.leader_generation = 1;
  primary_options.standby_host = "127.0.0.1";
  primary_options.standby_port = standby.port();
  primary_options.halt = {net::HaltSite::kEpochEnd, kHaltEpoch};
  std::unique_ptr<net::Coordinator> primary =
      Unwrap(net::Coordinator::Create(primary_options), "primary");
  fleet.emplace(world, node_model,
                std::vector<net::ParticipantEndpoint>{
                    {"127.0.0.1", primary->port()},
                    {"127.0.0.1", successor_port}});
  Require(primary->WaitForParticipants(kAssemblyTimeoutMs), "assembly");
  ckpt::CheckpointStore store =
      Unwrap(ckpt::CheckpointStore::Open(dir, 2, 1), "store (primary)");
  HflPhiAccumulator primary_phi(kParticipants);
  ckpt::HflStoreHook primary_hook(&store, &server, &primary_phi, 1, kEpochs);
  EpochClock primary_clock(&primary_hook, trace ? &trace->commit : nullptr,
                           trace ? &store : nullptr);
  FedSgdConfig config = world.config;
  config.checkpoint_hook = &primary_clock;

  const ModelTotals nn0 =
      trace ? ModelTotals::Of(trace->node_nn) : ModelTotals{};
  const ModelTotals server0 =
      trace ? ModelTotals::Of(trace->server_nn) : ModelTotals{};
  const SeamSnapshot seams0 = trace ? SeamSnapshot::Of(*trace) : SeamSnapshot{};

  // --- Measured: training start → final φ̂ totals. ---
  const Clock::time_point start = Clock::now();
  times->setup_s = Seconds(setup_start, start);
  Result<HflTrainingLog> halted =
      primary->RunFederatedTraining(server, world.init, config);
  const Clock::time_point killed = Clock::now();
  if (halted.ok() ||
      halted.status().code() != StatusCode::kFailedPrecondition) {
    throw std::runtime_error("primary did not halt at the planned epoch: " +
                             halted.status().ToString());
  }
  const uint64_t out1 = trace ? trace->net.participant.bytes_out.load() : 0;
  const uint64_t in1 = trace ? trace->net.participant.bytes_in.load() : 0;
  primary->Kill();
  primary.reset();

  net::StandbyOutcome promoted = standby.Await();
  if (!promoted.promoted() || !promoted.has_state) {
    throw std::runtime_error("standby did not promote with state");
  }
  const Clock::time_point detected = Clock::now();
  const uint64_t out2 = trace ? trace->net.participant.bytes_out.load() : 0;
  const uint64_t in2 = trace ? trace->net.participant.bytes_in.load() : 0;
  net::CoordinatorOptions successor_options;
  successor_options.transport = transport;
  successor_options.port = successor_port;
  successor_options.num_participants = kParticipants;
  successor_options.config_digest = world.digest;
  successor_options.leader_generation = promoted.generation;
  std::unique_ptr<net::Coordinator> successor =
      Unwrap(net::Coordinator::Create(successor_options), "successor");
  Require(successor->WaitForParticipants(kAssemblyTimeoutMs), "reassembly");
  const Clock::time_point assembled = Clock::now();
  HflPhiAccumulator successor_phi(kParticipants);
  ckpt::HflResumeLoad load = Unwrap(
      ckpt::ResumeFromState(std::move(promoted.state), successor_phi),
      "warm start");
  const Clock::time_point recovered = Clock::now();

  ckpt::CheckpointStore successor_store = Unwrap(
      ckpt::CheckpointStore::Open(dir, 2, promoted.generation),
      "store (successor)");
  // As on the disk resume path: commits past the resume point belong to
  // the abandoned timeline (a standby that promoted early is behind the
  // store) and must go before the successor commits those epochs again.
  Require(successor_store.TruncateAfter(load.epoch), "store truncate");
  ckpt::HflStoreHook successor_hook(&successor_store, &server, &successor_phi,
                                    1, kEpochs);
  EpochClock successor_clock(&successor_hook,
                             trace ? &trace->commit : nullptr,
                             trace ? &successor_store : nullptr);
  config.checkpoint_hook = &successor_clock;
  config.resume = &load.point;
  const Clock::time_point resumed = Clock::now();
  Outputs out;
  out.log = Unwrap(successor->RunFederatedTraining(server, world.init, config),
                   "successor run");
  out.phi_total = successor_phi.total();
  const Clock::time_point end = Clock::now();
  // --- End of the measured interval. ---

  const uint64_t out3 = trace ? trace->net.participant.bytes_out.load() : 0;
  const uint64_t in3 = trace ? trace->net.participant.bytes_in.load() : 0;
  const SeamSnapshot seams1 = trace ? SeamSnapshot::Of(*trace) : SeamSnapshot{};
  successor->Shutdown("benchmark round complete");
  Require(fleet->Join(), "participant node");
  successor.reset();

  out.resumed_epoch = load.epoch;
  ckpt::CheckpointStore::Loaded newest =
      Unwrap(successor_store.LoadLatest(), "newest checkpoint");
  ckpt::HflCheckpointState state =
      Unwrap(ckpt::DecodeHflCheckpoint(newest.payload), "decode newest");
  out.newest_epoch = newest.epoch;
  out.newest_phi_total = std::move(state.phi_total);
  out.newest_phi_per_epoch = std::move(state.phi_per_epoch);

  times->run_s = Seconds(start, end);
  times->recover_s = Seconds(killed, recovered);
  times->primary_epoch_s = EpochSeconds(start, primary_clock.stamps());
  if (trace == nullptr) return out;

  times->detect_s = Seconds(killed, detected);
  times->reassembly_s = Seconds(detected, assembled);
  times->warmstart_s = Seconds(assembled, recovered);
  times->training_s = Seconds(start, killed) + Seconds(resumed, end);
  {
    std::vector<Clock::time_point> primary_bounds = {start};
    primary_bounds.insert(primary_bounds.end(), primary_clock.stamps().begin(),
                          primary_clock.stamps().end());
    std::vector<Clock::time_point> successor_bounds = {resumed};
    successor_bounds.insert(successor_bounds.end(),
                            successor_clock.stamps().begin(),
                            successor_clock.stamps().end());
    std::lock_guard<std::mutex> lock(trace->net.mu);
    times->round_s = CollectWindows(trace->net.participant_ops, primary_bounds) +
                     CollectWindows(trace->net.participant_ops, successor_bounds);
    trace->net.participant_ops.clear();
    const std::vector<uint64_t>& sends = trace->net.standby_sends;
    // The first send on the replication link is the connection preamble.
    if (sends.size() >= 2 && sends[0] == net::kPreambleLen) {
      times->repl_bytes_first = sends[1];
      times->repl_bytes_last = sends.back();
    }
    trace->net.standby_sends.clear();
  }
  const ModelTotals node_nn = ModelTotals::Of(trace->node_nn) - nn0;
  const ModelTotals server_nn = ModelTotals::Of(trace->server_nn) - server0;
  times->server_nn_s = server_nn.Seconds();
  times->nn = node_nn;
  times->nn.gradient_calls += server_nn.gradient_calls;
  times->nn.loss_calls += server_nn.loss_calls;
  times->nn.predict_calls += server_nn.predict_calls;
  times->nn.gradient_s += server_nn.gradient_s;
  times->nn.loss_s += server_nn.loss_s;
  times->nn.predict_s += server_nn.predict_s;
  times->commit_s = primary_clock.commit_seconds();
  times->commit_s.insert(times->commit_s.end(),
                         successor_clock.commit_seconds().begin(),
                         successor_clock.commit_seconds().end());
  times->image_bytes = primary_clock.image_bytes();
  times->image_bytes.insert(times->image_bytes.end(),
                            successor_clock.image_bytes().begin(),
                            successor_clock.image_bytes().end());
  times->net_bytes_out = seams1.bytes_out - seams0.bytes_out;
  times->net_bytes_in = seams1.bytes_in - seams0.bytes_in;
  times->send_calls = seams1.send_calls - seams0.send_calls;
  times->send_s = seams1.send_s - seams0.send_s;
  times->recv_wait_s = seams1.recv_s - seams0.recv_s;
  times->repl_send_s = seams1.repl_send_s - seams0.repl_send_s;
  times->repl_ack_wait_s = seams1.repl_recv_s - seams0.repl_recv_s;
  times->commit_self_s = seams1.commit_self_s - seams0.commit_self_s;
  times->training_bytes_out = (out1 - out0) + (out3 - out2);
  times->training_bytes_in = (in1 - in0) + (in3 - in2);
  return out;
}

// Reference: the same world trained in-process, and its φ̂ accumulator.
struct Reference {
  HflTrainingLog log;
  std::vector<HflPhiAccumulator> prefix;  // prefix[k]: first k epochs
};

Reference MakeReference(const World& world) {
  Reference ref;
  HflServer server(world.model, world.validation);
  ref.log = Unwrap(RunFedSgd(world.model, world.participants, server,
                             world.init, world.config),
                   "in-process reference");
  HflPhiAccumulator phi(kParticipants);
  ref.prefix.push_back(phi);
  for (const HflEpochRecord& record : ref.log.epochs) {
    Require(phi.Consume(server, record), "reference phi");
    ref.prefix.push_back(phi);
  }
  return ref;
}

// Bitwise identity of the failed-over run and the in-process run.
std::string CheckBitwise(const Reference& ref, const Outputs& out) {
  if (out.log.final_params != ref.log.final_params) {
    return "final parameters differ from the in-process run";
  }
  if (out.log.validation_loss != ref.log.validation_loss ||
      out.log.validation_accuracy != ref.log.validation_accuracy) {
    return "validation trace differs from the in-process run";
  }
  if (out.phi_total != ref.prefix.back().total()) {
    return "phi totals differ from the in-process run";
  }
  return "";
}

std::string CheckResumeEpoch(const Outputs& out) {
  if (out.resumed_epoch != kHaltEpoch + 1) {
    return "successor resumed at epoch " + std::to_string(out.resumed_epoch) +
           ", expected " + std::to_string(kHaltEpoch + 1);
  }
  return "";
}

std::string CheckNewestCheckpoint(const Reference& ref, const Outputs& out) {
  if (out.newest_epoch >= ref.prefix.size()) {
    return "newest checkpoint is past the end of the run";
  }
  const HflPhiAccumulator& phi = ref.prefix[out.newest_epoch];
  if (out.newest_phi_total != phi.total() ||
      out.newest_phi_per_epoch != phi.per_epoch()) {
    return "newest checkpoint's phi differs from the in-process accumulator "
           "at epoch " +
           std::to_string(out.newest_epoch);
  }
  return "";
}

// Traced runs: bytes the participant channels carried from connection to
// the end of training equal the CommMeter's per-direction totals.
std::string CheckWireBytes(const HflTrainingLog& log, uint64_t bytes_out,
                           uint64_t bytes_in) {
  uint64_t down = 0, up = 0;
  for (const auto& [channel, bytes] : log.comm.ByChannel()) {
    if (channel.rfind("coordinator->participant", 0) == 0) down += bytes;
    if (channel.find("->coordinator") != std::string::npos) up += bytes;
  }
  if (down != bytes_out || up != bytes_in) {
    return "transport bytes " + std::to_string(bytes_out) + " out / " +
           std::to_string(bytes_in) + " in, CommMeter " +
           std::to_string(down) + " / " + std::to_string(up);
  }
  return "";
}

std::string CheckOutputs(const Reference& ref, const Outputs& out) {
  for (std::string failure : {CheckBitwise(ref, out), CheckResumeEpoch(out),
                              CheckNewestCheckpoint(ref, out)}) {
    if (!failure.empty()) return failure;
  }
  return "";
}

// Median microseconds of the public round codecs at the run's d.
std::pair<double, double> ReplayWire(const World& world) {
  net::RoundRequestMsg request;
  request.epoch = kHaltEpoch;
  request.learning_rate = kLearningRate;
  request.params = world.init;
  request.generation = 1;
  net::RoundReplyMsg reply;
  reply.epoch = kHaltEpoch;
  reply.participant_id = 1;
  reply.delta = world.init;
  const std::string reply_bytes = net::EncodeRoundReply(reply);
  std::vector<double> encode_us, decode_us;
  for (int rep = 0; rep < 51; ++rep) {
    Clock::time_point t0 = Clock::now();
    const std::string bytes = net::EncodeRoundRequest(request);
    Clock::time_point t1 = Clock::now();
    Result<net::RoundReplyMsg> decoded = net::DecodeRoundReply(reply_bytes);
    Clock::time_point t2 = Clock::now();
    Require(decoded.status(), "decode reply");
    if (bytes.empty()) throw std::runtime_error("empty round request");
    encode_us.push_back(Seconds(t0, t1) * 1e6);
    decode_us.push_back(Seconds(t1, t2) * 1e6);
  }
  return {Median(encode_us), Median(decode_us)};
}

// Median seconds to encode and to decode the final checkpoint image.
std::pair<double, double> ReplayCheckpoint(const Reference& ref) {
  std::vector<double> encode_s, decode_s;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point t0 = Clock::now();
    const std::string image = Unwrap(
        ckpt::EncodeHflCheckpoint(kEpochs, kLearningRate, {}, ref.log,
                                  ref.prefix.back()),
        "encode checkpoint");
    Clock::time_point t1 = Clock::now();
    Require(ckpt::DecodeHflCheckpoint(image).status(), "decode checkpoint");
    Clock::time_point t2 = Clock::now();
    encode_s.push_back(Seconds(t0, t1));
    decode_s.push_back(Seconds(t1, t2));
  }
  return {Median(encode_s), Median(decode_s)};
}

}  // namespace

RunResult RunHflTcpHa(const RunArgs& args) {
  const World world = MakeWorld(args.seed);
  std::optional<Tracing> trace;
  if (args.trace) trace.emplace(world);
  std::filesystem::create_directories(args.scratch_dir);
  const std::string dir = args.scratch_dir + "/ckpt";

  RunResult result;
  std::vector<RoundTimes> rounds;
  std::optional<Outputs> first;  // later rounds must repeat it bitwise
  std::string mismatch;
  // High-water mark after the first (cold) round: the threads each round
  // starts get fresh allocator arenas, so reading it later would make it
  // depend on the round count.
  double peak_rss_mb = 0;
  double setup_s = 0;
  std::string wire_failure;
  const Clock::time_point measure_start = Clock::now();
  while (rounds.empty() ||
         Seconds(measure_start, Clock::now()) < args.seconds) {
    RoundTimes times;
    Outputs out = RunRound(world, dir, trace ? &*trace : nullptr, &times);
    if (rounds.empty()) {
      // Cold set-up: process start → the first round's training start.
      setup_s = Seconds(ProcessStart(), measure_start) + times.setup_s;
    }
    if (trace && wire_failure.empty()) {
      wire_failure = CheckWireBytes(out.log, times.training_bytes_out,
                                    times.training_bytes_in);
    }
    std::fprintf(stderr, "round %zu: %.4f s\n", rounds.size() + 1,
                 times.run_s);
    rounds.push_back(std::move(times));
    if (!first) {
      peak_rss_mb = PeakRssMb();
      first = std::move(out);
    } else if (out.log.final_params != first->log.final_params ||
               out.log.validation_loss != first->log.validation_loss ||
               out.phi_total != first->phi_total ||
               out.resumed_epoch != first->resumed_epoch ||
               out.newest_phi_per_epoch != first->newest_phi_per_epoch) {
      mismatch = "a repeated round produced different outputs";
    }
    ++result.attempted;
  }
  std::filesystem::remove_all(args.scratch_dir);

  const Reference ref = MakeReference(world);
  for (const std::string& failure :
       {mismatch, CheckOutputs(ref, *first), wire_failure}) {
    if (result.check_failure.empty()) result.check_failure = failure;
  }

  using R = RoundTimes;
  const double run_s = MedianOver(rounds, [](const R& r) { return r.run_s; });
  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("run_s", run_s, "s");
    result.Add("peak_rss_mb", peak_rss_mb, "MiB");
    return result;
  }

  // Ledger of the training calls' wall time on the coordinator's critical
  // path: broadcast→collect windows (participant compute and transport),
  // server-side nn, checkpoint commits, replication sends and ack waits;
  // net.other_s is what none of them covers (fold, request encoding, the
  // replication image encode, thread hand-offs). recover_s splits exactly
  // into the three ha.* rows, which are contiguous intervals.
  const auto [encode_us, decode_us] = ReplayWire(world);
  const auto [ckpt_encode_s, ckpt_decode_s] = ReplayCheckpoint(ref);
  const R& r0 = rounds.front();
  auto add = [&](const char* name, const char* unit, auto field) {
    result.Add(name, MedianOver(rounds, field), unit);
  };
  std::vector<double> epochs;
  for (const R& r : rounds) {
    epochs.insert(epochs.end(), r.primary_epoch_s.begin(),
                  r.primary_epoch_s.end());
  }
  result.Add("epoch_s", Median(epochs), "s");
  add("recover_s", "s", [](const R& r) { return r.recover_s; });
  result.Add("wire_bytes_per_epoch",
             static_cast<double>(first->log.comm.TotalBytes()) / kEpochs,
             "bytes");
  add("nn.gradient_calls", "count",
      [](const R& r) { return r.nn.gradient_calls; });
  add("nn.gradient_s", "s", [](const R& r) { return r.nn.gradient_s; });
  add("nn.loss_calls", "count", [](const R& r) { return r.nn.loss_calls; });
  add("nn.loss_s", "s", [](const R& r) { return r.nn.loss_s; });
  add("nn.predict_calls", "count",
      [](const R& r) { return r.nn.predict_calls; });
  add("nn.predict_s", "s", [](const R& r) { return r.nn.predict_s; });
  add("nn.server_s", "s", [](const R& r) { return r.server_nn_s; });
  add("net.bytes_out", "bytes", [](const R& r) { return r.net_bytes_out; });
  add("net.bytes_in", "bytes", [](const R& r) { return r.net_bytes_in; });
  add("net.send_calls", "count", [](const R& r) { return r.send_calls; });
  add("net.send_s", "s", [](const R& r) { return r.send_s; });
  add("net.recv_wait_s", "s", [](const R& r) { return r.recv_wait_s; });
  add("net.round_s", "s", [](const R& r) { return r.round_s; });
  result.Add("wire.encode_round_us", encode_us, "us");
  result.Add("wire.decode_reply_us", decode_us, "us");
  add("ckpt.commit_s", "s", [](const R& r) { return Median(r.commit_s); });
  add("ckpt.commit_last_s", "s", [](const R& r) { return r.commit_s.back(); });
  add("ckpt.self_s", "s", [](const R& r) { return r.commit_self_s; });
  result.Add("ckpt.bytes_first",
             static_cast<double>(r0.image_bytes.front()), "bytes");
  result.Add("ckpt.bytes_last", static_cast<double>(r0.image_bytes.back()),
             "bytes");
  result.Add("ckpt.encode_last_s", ckpt_encode_s, "s");
  result.Add("ckpt.decode_last_s", ckpt_decode_s, "s");
  result.Add("repl.bytes_first", static_cast<double>(r0.repl_bytes_first),
             "bytes");
  result.Add("repl.bytes_last", static_cast<double>(r0.repl_bytes_last),
             "bytes");
  add("repl.send_s", "s", [](const R& r) { return r.repl_send_s; });
  add("repl.ack_wait_s", "s", [](const R& r) { return r.repl_ack_wait_s; });
  add("ha.detect_s", "s", [](const R& r) { return r.detect_s; });
  add("ha.reassembly_s", "s", [](const R& r) { return r.reassembly_s; });
  add("ha.warmstart_s", "s", [](const R& r) { return r.warmstart_s; });
  add("net.other_s", "s", [](const R& r) {
    return r.training_s - r.round_s - r.server_nn_s - r.commit_self_s -
           r.repl_send_s - r.repl_ack_wait_s;
  });
  result.Add("trace.run_s", run_s, "s");
  return result;
}

int SelfTestHflTcpHa(const RunArgs& args) {
  const World world = MakeWorld(args.seed);
  Tracing trace(world);
  std::filesystem::create_directories(args.scratch_dir);
  RoundTimes times;
  const Outputs truth =
      RunRound(world, args.scratch_dir + "/ckpt", &trace, &times);
  std::filesystem::remove_all(args.scratch_dir);
  const Reference ref = MakeReference(world);
  int failures = Expect("hfl-tcp-ha true outputs", CheckOutputs(ref, truth),
                        false);
  failures += Expect("hfl-tcp-ha true transport byte counts",
                     CheckWireBytes(truth.log, times.training_bytes_out,
                                    times.training_bytes_in),
                     false);

  Outputs flipped = truth;
  uint64_t bits;
  std::memcpy(&bits, &flipped.log.final_params[3], sizeof bits);
  bits ^= 1;  // lowest mantissa bit
  std::memcpy(&flipped.log.final_params[3], &bits, sizeof bits);
  failures += Expect("hfl-tcp-ha bitwise: one flipped bit in final params",
                     CheckBitwise(ref, flipped), true);

  Outputs trace_off = truth;
  trace_off.log.validation_loss.back() =
      std::nextafter(trace_off.log.validation_loss.back(), 0.0);
  failures += Expect("hfl-tcp-ha bitwise: validation trace one ulp off",
                     CheckBitwise(ref, trace_off), true);

  Outputs swapped = truth;
  std::swap(swapped.phi_total[0], swapped.phi_total[1]);
  failures += Expect("hfl-tcp-ha bitwise: swapped phi totals",
                     CheckBitwise(ref, swapped), true);

  Outputs early = truth;
  early.resumed_epoch -= 1;
  failures += Expect("hfl-tcp-ha resume epoch off by one",
                     CheckResumeEpoch(early), true);

  Outputs stale = truth;
  std::swap(stale.newest_phi_per_epoch[0], stale.newest_phi_per_epoch[1]);
  failures += Expect("hfl-tcp-ha newest checkpoint: swapped phi rows",
                     CheckNewestCheckpoint(ref, stale), true);

  failures += Expect("hfl-tcp-ha transport bytes off by one",
                     CheckWireBytes(truth.log, times.training_bytes_out + 1,
                                    times.training_bytes_in),
                     true);
  return failures;
}

}  // namespace perfbench
