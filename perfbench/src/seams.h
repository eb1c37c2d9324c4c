// Decorators the traced runs put on the program's public seams: the Model
// interface, the net::Transport/Conn byte-stream layer and the
// HflCheckpointHook. Each forwards every call unchanged (results are
// bitwise those of the wrapped object) and records time and counts.
//
// EpochClock is the one decorator the untraced runs also use: epoch_s is
// read from its commit timestamps. In an untraced run it only stamps the
// clock and calls the program's own hook.

#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "ckpt/store.h"
#include "common.h"
#include "hfl/fed_sgd.h"
#include "net/transport.h"
#include "nn/model.h"

namespace perfbench {

struct ModelSeams {
  SeamStats gradient;
  SeamStats loss;
  SeamStats hvp;
  SeamStats predict;  // Predict and Accuracy
};

// Snapshot of ModelSeams, for per-phase differences.
struct ModelTotals {
  uint64_t gradient_calls = 0, loss_calls = 0, hvp_calls = 0,
           predict_calls = 0;
  double gradient_s = 0, loss_s = 0, hvp_s = 0, predict_s = 0;

  static ModelTotals Of(const ModelSeams& seams);
  ModelTotals operator-(const ModelTotals& earlier) const;
  double Seconds() const { return gradient_s + loss_s + hvp_s + predict_s; }
};

class TimedModel : public digfl::Model {
 public:
  // `seams` is not owned and must outlive this model and all its clones
  // (HflServer keeps a clone).
  TimedModel(const digfl::Model& inner, size_t num_features,
             ModelSeams* seams)
      : inner_(inner.Clone()), num_features_(num_features), seams_(seams) {}

  std::string Name() const override { return inner_->Name(); }
  size_t NumParams() const override { return inner_->NumParams(); }
  digfl::Result<double> Loss(const digfl::Vec& params,
                             const digfl::Dataset& data) const override;
  digfl::Result<digfl::Vec> Gradient(const digfl::Vec& params,
                                     const digfl::Dataset& data) const override;
  digfl::Result<digfl::Vec> Hvp(const digfl::Vec& params,
                                const digfl::Dataset& data,
                                const digfl::Vec& v) const override;
  digfl::Result<digfl::Vec> Predict(const digfl::Vec& params,
                                    const digfl::Matrix& x) const override;
  digfl::Result<double> Accuracy(const digfl::Vec& params,
                                 const digfl::Dataset& data) const override;
  digfl::Result<digfl::Vec> InitParams(digfl::Rng& rng) const override {
    return inner_->InitParams(rng);
  }
  std::unique_ptr<digfl::Model> Clone() const override {
    return std::make_unique<TimedModel>(*inner_, num_features_, seams_);
  }

 protected:
  size_t NumFeatures() const override { return num_features_; }

 private:
  std::unique_ptr<digfl::Model> inner_;
  size_t num_features_;
  ModelSeams* seams_;
};

// Byte stream seams, split by direction of the connection: connections a
// coordinator accepts are participant channels; connections it dials go to
// the hot standby (the replication link).
struct LinkSeams {
  SeamStats send;
  SeamStats recv;  // time blocked in RecvSome/RecvExact
  std::atomic<uint64_t> bytes_out{0};
  std::atomic<uint64_t> bytes_in{0};
};

struct NetSeams {
  LinkSeams participant;
  LinkSeams standby;

  // Start/end of every participant-channel operation, for the per-epoch
  // broadcast→collect window.
  struct Op {
    Clock::time_point start;
    Clock::time_point end;
  };
  std::mutex mu;
  std::vector<Op> participant_ops;  // guarded by mu
  // Size of every completed send on the replication link, in order.
  std::vector<uint64_t> standby_sends;  // guarded by mu
};

// Wraps a Transport: listeners hand out participant-timed connections,
// dials return standby-timed ones.
class TimedTransport : public digfl::net::Transport {
 public:
  TimedTransport(digfl::net::Transport* inner, NetSeams* seams)
      : inner_(inner), seams_(seams) {}

  digfl::Result<std::unique_ptr<digfl::net::Listener>> Listen(
      uint16_t port) override;
  digfl::Result<std::unique_ptr<digfl::net::Conn>> Connect(
      const std::string& host, uint16_t port, int timeout_ms) override;
  uint64_t NowMs() const override { return inner_->NowMs(); }

 private:
  digfl::net::Transport* inner_;
  NetSeams* seams_;
};

// Records the moment each epoch commits (the hook's entry) and forwards to
// the program's hook, if any. With `commit` set it also times the inner
// hook call and, with `store` set, the size of the file each commit wrote.
class EpochClock : public digfl::HflCheckpointHook {
 public:
  EpochClock(digfl::HflCheckpointHook* inner = nullptr,
             SeamStats* commit = nullptr,
             const digfl::ckpt::CheckpointStore* store = nullptr)
      : inner_(inner), commit_(commit), store_(store) {}

  digfl::Status OnEpoch(const digfl::HflTrainerView& view) override;

  const std::vector<Clock::time_point>& stamps() const { return stamps_; }
  const std::vector<double>& commit_seconds() const { return commit_seconds_; }
  const std::vector<uint64_t>& image_bytes() const { return image_bytes_; }

 private:
  digfl::HflCheckpointHook* inner_;
  SeamStats* commit_;
  const digfl::ckpt::CheckpointStore* store_;
  std::vector<Clock::time_point> stamps_;
  std::vector<double> commit_seconds_;
  std::vector<uint64_t> image_bytes_;
};

// Wall time of each epoch: the first from `start` to the first stamp, the
// rest between consecutive stamps.
std::vector<double> EpochSeconds(Clock::time_point start,
                                 const std::vector<Clock::time_point>& stamps);

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
