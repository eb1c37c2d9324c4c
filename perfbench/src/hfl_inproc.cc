// Workload hfl-inproc: in-process FedSGD on the synthetic MNIST stand-in
// with the MLP widened to d ≈ 10^5, then DIG-FL Algorithm #2 and
// Algorithm #1 over the training log. Single-threaded and compute-bound:
// nn (gradient, HVP), tensor (dot, axpy) and core (φ̂) do the work.

#include <cmath>
#include <cstring>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/digfl_hfl.h"
#include "data/corruption.h"
#include "data/paper_datasets.h"
#include "data/partition.h"
#include "hfl/fed_sgd.h"
#include "nn/mlp.h"
#include "seams.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace digfl;

constexpr size_t kParticipants = 6;
// The last participant's shard is relabeled uniformly at random among the
// wrong classes; DIG-FL must rank it last.
constexpr size_t kPlanted = kParticipants - 1;
constexpr size_t kSamplesPerShard = 40;
constexpr size_t kValidationSamples = 60;
constexpr size_t kEpochs = 6;
constexpr double kLearningRate = 0.5;
constexpr size_t kFeatures = 32;  // the MNIST stand-in's feature count
// {32, 300, 300, 10}: d = 103,210 parameters.
const std::vector<size_t> kLayers = {kFeatures, 300, 300, 10};

struct World {
  Mlp model{kLayers};
  std::vector<HflParticipant> participants;
  Dataset validation;
  Vec init;
  FedSgdConfig config;
};

World MakeWorld(uint64_t seed) {
  const size_t pool = kParticipants * kSamplesPerShard + kValidationSamples;
  PaperDatasetOptions data_options;
  data_options.sample_fraction = static_cast<double>(pool) / 70000.0;
  data_options.seed = seed;
  PaperDatasetSpec spec = Unwrap(
      MakePaperDataset(PaperDatasetId::kMnist, data_options), "MNIST data");
  Rng rng(seed ^ 0x5eed);
  auto split = Unwrap(
      SplitHoldout(spec.data,
                   static_cast<double>(kValidationSamples) / pool, rng),
      "holdout split");
  std::vector<Dataset> shards =
      Unwrap(PartitionIid(split.first, kParticipants, rng), "partition");
  shards[kPlanted] =
      Unwrap(MislabelFraction(shards[kPlanted], 1.0, rng), "mislabel");

  World world;
  world.validation = std::move(split.second);
  for (size_t i = 0; i < kParticipants; ++i) {
    world.participants.emplace_back(i, std::move(shards[i]));
  }
  world.init = Unwrap(world.model.InitParams(rng), "init params");
  world.config.epochs = kEpochs;
  world.config.learning_rate = kLearningRate;
  return world;
}

struct Outputs {
  HflTrainingLog log;
  ContributionReport alg2;
  ContributionReport alg1;
};

struct RoundTimes {
  double train_s = 0, alg2_s = 0, alg1_s = 0;
  std::vector<double> epoch_s;
  ModelTotals train_nn, alg2_nn, alg1_nn;  // traced runs only
};

// One operation: train, then evaluate φ̂ both ways. `model`/`server` are
// the program's own objects in an untraced run, timed ones in a traced run.
Outputs RunRound(const World& world, const Model& model, HflServer& server,
                 const ModelSeams* seams, RoundTimes* times) {
  Outputs out;
  EpochClock clock;
  FedSgdConfig config = world.config;
  config.checkpoint_hook = &clock;
  const ModelTotals t0 = seams ? ModelTotals::Of(*seams) : ModelTotals{};
  const Clock::time_point start = Clock::now();
  out.log = Unwrap(
      RunFedSgd(model, world.participants, server, world.init, config),
      "RunFedSgd");
  const Clock::time_point trained = Clock::now();
  const ModelTotals t1 = seams ? ModelTotals::Of(*seams) : ModelTotals{};
  DigFlHflOptions alg2;
  alg2.mode = HflEvaluatorMode::kResourceSaving;
  out.alg2 = Unwrap(EvaluateHflContributions(model, world.participants,
                                             server, out.log, alg2),
                    "Algorithm #2");
  const Clock::time_point evaluated2 = Clock::now();
  const ModelTotals t2 = seams ? ModelTotals::Of(*seams) : ModelTotals{};
  DigFlHflOptions alg1;
  alg1.mode = HflEvaluatorMode::kInteractive;
  out.alg1 = Unwrap(EvaluateHflContributions(model, world.participants,
                                             server, out.log, alg1),
                    "Algorithm #1");
  const Clock::time_point evaluated1 = Clock::now();
  const ModelTotals t3 = seams ? ModelTotals::Of(*seams) : ModelTotals{};

  times->train_s = Seconds(start, trained);
  times->alg2_s = Seconds(trained, evaluated2);
  times->alg1_s = Seconds(evaluated2, evaluated1);
  times->epoch_s = EpochSeconds(start, clock.stamps());
  times->train_nn = t1 - t0;
  times->alg2_nn = t2 - t1;
  times->alg1_nn = t3 - t2;
  return out;
}

// θ_{t-1} − θ_t for epoch t, both read from the log.
Vec ParamStep(const HflTrainingLog& log, size_t t) {
  const Vec& after = t + 1 < log.epochs.size() ? log.epochs[t + 1].params_before
                                               : log.final_params;
  return vec::Sub(log.epochs[t].params_before, after);
}

// The workload's correctness checks; each returns an empty string when it
// holds. `server` is an undecorated server over the validation set.

// Efficiency of Algorithm #2 per epoch: Σ_i φ̂_{t,i} = v_t·(θ_{t-1} − θ_t),
// with v_t = ∇loss^v(θ_{t-1}) computed here and θ read from the log.
// Relative to Σ_i |φ̂_{t,i}|, which bounds the cancellation in the sum.
std::string CheckEfficiency(const HflServer& server, const Outputs& out) {
  const HflTrainingLog& log = out.log;
  for (size_t t = 0; t < kEpochs; ++t) {
    const Vec v =
        Unwrap(server.ValidationGradient(log.epochs[t].params_before), "v_t");
    const double expected = vec::Dot(v, ParamStep(log, t));
    double sum = 0, scale = 0;
    for (double phi : out.alg2.per_epoch[t]) {
      sum += phi;
      scale += std::abs(phi);
    }
    if (!(std::abs(sum - expected) <= 1e-9 * scale)) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "epoch %zu: sum of phi %.17g != v.(theta_t-1 - theta_t) "
                    "%.17g",
                    t, sum, expected);
      return buf;
    }
  }
  return "";
}

// The second-order term vanishes at t = 1, so both algorithms agree there.
std::string CheckFirstRow(const Outputs& out) {
  if (out.alg1.per_epoch[0] != out.alg2.per_epoch[0]) {
    return "Algorithm #1 first-epoch row differs from Algorithm #2's";
  }
  return "";
}

std::string CheckPlantedLast(const Outputs& out) {
  for (const ContributionReport* report : {&out.alg2, &out.alg1}) {
    for (size_t i = 0; i < kParticipants; ++i) {
      if (i != kPlanted && !(report->total[i] > report->total[kPlanted])) {
        return std::string("mislabeled participant does not rank last under ") +
               (report == &out.alg2 ? "Algorithm #2" : "Algorithm #1");
      }
    }
  }
  return "";
}

std::string CheckLossDecreased(const World& world, const HflServer& server,
                               const Outputs& out) {
  const double loss0 = Unwrap(server.ValidationLoss(world.init), "loss0");
  const double lossT =
      Unwrap(server.ValidationLoss(out.log.final_params), "lossT");
  if (!(lossT < loss0)) return "validation loss did not decrease";
  return "";
}

std::string CheckOutputs(const World& world, const HflServer& server,
                         const Outputs& out) {
  if (out.log.epochs.size() != kEpochs ||
      out.alg2.per_epoch.size() != kEpochs ||
      out.alg1.per_epoch.size() != kEpochs) {
    return "log or phi rows do not cover every epoch";
  }
  for (std::string failure :
       {CheckEfficiency(server, out), CheckFirstRow(out),
        CheckPlantedLast(out), CheckLossDecreased(world, server, out)}) {
    if (!failure.empty()) return failure;
  }
  return "";
}

// Replays the first-order term's dot products, vec::Dot(v_t, δ_{t,i}), over
// the logged vectors; seconds for one pass (median of five).
double ReplayDots(const HflServer& server, const HflTrainingLog& log) {
  std::vector<Vec> v;
  for (const HflEpochRecord& record : log.epochs) {
    v.push_back(
        Unwrap(server.ValidationGradient(record.params_before), "v_t"));
  }
  std::vector<double> passes;
  volatile double sink = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const Clock::time_point start = Clock::now();
    double acc = 0;
    for (size_t t = 0; t < log.epochs.size(); ++t) {
      for (const Vec& delta : log.epochs[t].deltas) {
        acc += vec::Dot(v[t], delta);
      }
    }
    passes.push_back(Seconds(start, Clock::now()));
    sink = sink + acc;
  }
  return Median(passes);
}

}  // namespace

RunResult RunHflInproc(const RunArgs& args) {
  const World world = MakeWorld(args.seed);
  ModelSeams seams;
  std::optional<TimedModel> timed;
  if (args.trace) timed.emplace(world.model, kFeatures, &seams);
  const Model& model =
      args.trace ? static_cast<const Model&>(*timed) : world.model;
  HflServer server(model, world.validation);
  const double setup_s = Seconds(ProcessStart(), Clock::now());

  RunResult result;
  std::vector<RoundTimes> rounds;
  std::optional<Outputs> first;  // later rounds must repeat it bitwise
  std::string mismatch;
  double peak_rss_mb = 0;  // after the first (cold) round
  const Clock::time_point measure_start = Clock::now();
  while (rounds.empty() ||
         Seconds(measure_start, Clock::now()) < args.seconds) {
    RoundTimes times;
    Outputs out =
        RunRound(world, model, server, args.trace ? &seams : nullptr, &times);
    std::fprintf(stderr, "round %zu: %.4f s\n", rounds.size() + 1,
                 times.train_s + times.alg2_s + times.alg1_s);
    rounds.push_back(std::move(times));
    ++result.attempted;
    if (!first) {
      peak_rss_mb = PeakRssMb();
      first = std::move(out);
    } else if (out.log.final_params != first->log.final_params ||
               out.alg2.total != first->alg2.total ||
               out.alg1.total != first->alg1.total) {
      mismatch = "a repeated round produced different outputs";
    }
  }

  const HflServer plain_server(world.model, world.validation);
  result.check_failure = mismatch.empty()
                             ? CheckOutputs(world, plain_server, *first)
                             : mismatch;

  using R = RoundTimes;
  const double run_s = MedianOver(
      rounds, [](const R& r) { return r.train_s + r.alg2_s + r.alg1_s; });
  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("run_s", run_s, "s");
    result.Add("peak_rss_mb", peak_rss_mb, "MiB");
    return result;
  }

  // Ledger. Training: nn self time, the rest is the hfl layer (fold,
  // quarantine gate, log copies). Algorithm #2: validation gradients, the
  // replayed dot products, the rest. Algorithm #1: HVPs, validation
  // gradients, the rest.
  const double dot_s = ReplayDots(plain_server, first->log);
  auto add = [&](const char* name, const char* unit, auto field) {
    result.Add(name, MedianOver(rounds, field), unit);
  };
  std::vector<double> epochs;
  for (const R& r : rounds) {
    epochs.insert(epochs.end(), r.epoch_s.begin(), r.epoch_s.end());
  }
  result.Add("epoch_s", Median(epochs), "s");
  add("phi_alg2_s", "s", [](const R& r) { return r.alg2_s; });
  add("phi_alg1_s", "s", [](const R& r) { return r.alg1_s; });
  add("nn.gradient_calls", "count",
      [](const R& r) { return r.train_nn.gradient_calls; });
  add("nn.gradient_s", "s", [](const R& r) { return r.train_nn.gradient_s; });
  add("nn.loss_calls", "count",
      [](const R& r) { return r.train_nn.loss_calls; });
  add("nn.loss_s", "s", [](const R& r) { return r.train_nn.loss_s; });
  add("nn.predict_calls", "count",
      [](const R& r) { return r.train_nn.predict_calls; });
  add("nn.predict_s", "s", [](const R& r) { return r.train_nn.predict_s; });
  add("hfl.other_s", "s",
      [](const R& r) { return r.train_s - r.train_nn.Seconds(); });
  add("core.val_grad_s", "s", [](const R& r) { return r.alg2_nn.gradient_s; });
  result.Add("core.dot_s", dot_s, "s");
  add("core.other_s", "s",
      [&](const R& r) { return r.alg2_s - r.alg2_nn.Seconds() - dot_s; });
  add("nn.hvp_calls", "count", [](const R& r) { return r.alg1_nn.hvp_calls; });
  add("nn.hvp_s", "s", [](const R& r) { return r.alg1_nn.hvp_s; });
  add("core.alg1_val_grad_s", "s",
      [](const R& r) { return r.alg1_nn.gradient_s; });
  add("core.alg1_other_s", "s",
      [](const R& r) { return r.alg1_s - r.alg1_nn.Seconds(); });
  result.Add("trace.run_s", run_s, "s");
  return result;
}

int SelfTestHflInproc(const RunArgs& args) {
  const World world = MakeWorld(args.seed);
  HflServer server(world.model, world.validation);
  RoundTimes times;
  const Outputs truth = RunRound(world, world.model, server, nullptr, &times);
  int failures = Expect("hfl-inproc true outputs",
                        CheckOutputs(world, server, truth), false);

  Outputs swapped_rows = truth;
  std::swap(swapped_rows.alg2.per_epoch[1], swapped_rows.alg2.per_epoch[2]);
  failures += Expect("hfl-inproc efficiency: swapped phi rows",
                     CheckEfficiency(server, swapped_rows), true);

  Outputs flipped = truth;
  uint64_t bits;
  std::memcpy(&bits, &flipped.log.final_params[7], sizeof bits);
  bits ^= uint64_t{1} << 51;
  std::memcpy(&flipped.log.final_params[7], &bits, sizeof bits);
  failures += Expect("hfl-inproc efficiency: flipped bit in final params",
                     CheckEfficiency(server, flipped), true);

  Outputs first_row = truth;
  std::swap(first_row.alg1.per_epoch[0][0], first_row.alg1.per_epoch[0][1]);
  failures += Expect("hfl-inproc first row: swapped Algorithm #1 entries",
                     CheckFirstRow(first_row), true);

  for (const bool alg2 : {true, false}) {
    Outputs ranked = truth;
    std::vector<double>& total = alg2 ? ranked.alg2.total : ranked.alg1.total;
    std::swap(total[kPlanted], total[0]);
    failures += Expect(alg2 ? "hfl-inproc ranking: swapped totals (Alg. #2)"
                            : "hfl-inproc ranking: swapped totals (Alg. #1)",
                       CheckPlantedLast(ranked), true);
  }

  Outputs untrained = truth;
  untrained.log.final_params = world.init;
  failures += Expect("hfl-inproc loss: final parameters reset to theta_0",
                     CheckLossDecreased(world, server, untrained), true);
  return failures;
}

}  // namespace perfbench
