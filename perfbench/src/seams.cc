#include "seams.h"

#include <filesystem>
#include <system_error>

namespace perfbench {

using digfl::Dataset;
using digfl::Result;
using digfl::Status;
using digfl::Vec;

ModelTotals ModelTotals::Of(const ModelSeams& seams) {
  ModelTotals t;
  t.gradient_calls = seams.gradient.calls;
  t.loss_calls = seams.loss.calls;
  t.hvp_calls = seams.hvp.calls;
  t.predict_calls = seams.predict.calls;
  t.gradient_s = seams.gradient.SelfSeconds();
  t.loss_s = seams.loss.SelfSeconds();
  t.hvp_s = seams.hvp.SelfSeconds();
  t.predict_s = seams.predict.SelfSeconds();
  return t;
}

ModelTotals ModelTotals::operator-(const ModelTotals& earlier) const {
  ModelTotals d;
  d.gradient_calls = gradient_calls - earlier.gradient_calls;
  d.loss_calls = loss_calls - earlier.loss_calls;
  d.hvp_calls = hvp_calls - earlier.hvp_calls;
  d.predict_calls = predict_calls - earlier.predict_calls;
  d.gradient_s = gradient_s - earlier.gradient_s;
  d.loss_s = loss_s - earlier.loss_s;
  d.hvp_s = hvp_s - earlier.hvp_s;
  d.predict_s = predict_s - earlier.predict_s;
  return d;
}

Result<double> TimedModel::Loss(const Vec& params, const Dataset& data) const {
  SeamSpan span(seams_->loss);
  return inner_->Loss(params, data);
}

Result<Vec> TimedModel::Gradient(const Vec& params,
                                 const Dataset& data) const {
  SeamSpan span(seams_->gradient);
  return inner_->Gradient(params, data);
}

Result<Vec> TimedModel::Hvp(const Vec& params, const Dataset& data,
                            const Vec& v) const {
  SeamSpan span(seams_->hvp);
  return inner_->Hvp(params, data, v);
}

Result<Vec> TimedModel::Predict(const Vec& params,
                                const digfl::Matrix& x) const {
  SeamSpan span(seams_->predict);
  return inner_->Predict(params, x);
}

Result<double> TimedModel::Accuracy(const Vec& params,
                                    const Dataset& data) const {
  SeamSpan span(seams_->predict);
  return inner_->Accuracy(params, data);
}

namespace {

class TimedConn : public digfl::net::Conn {
 public:
  TimedConn(std::unique_ptr<digfl::net::Conn> inner, NetSeams* seams,
            bool participant)
      : inner_(std::move(inner)),
        seams_(seams),
        participant_(participant),
        link_(participant ? &seams->participant : &seams->standby) {}

  bool valid() const override { return inner_->valid(); }
  void Close() override { inner_->Close(); }

  Status SendAll(std::string_view data, int timeout_ms) override {
    const Clock::time_point start = Clock::now();
    Status status = [&] {
      SeamSpan span(link_->send);
      return inner_->SendAll(data, timeout_ms);
    }();
    if (status.ok()) {
      link_->bytes_out += data.size();
      if (!participant_) {
        std::lock_guard<std::mutex> lock(seams_->mu);
        seams_->standby_sends.push_back(data.size());
      }
    }
    LogOp(start);
    return status;
  }

  Result<size_t> RecvSome(char* buf, size_t len, int timeout_ms) override {
    const Clock::time_point start = Clock::now();
    Result<size_t> got = [&] {
      SeamSpan span(link_->recv);
      return inner_->RecvSome(buf, len, timeout_ms);
    }();
    if (got.ok()) link_->bytes_in += *got;
    LogOp(start);
    return got;
  }

  Status RecvExact(char* buf, size_t len, int timeout_ms) override {
    const Clock::time_point start = Clock::now();
    Status status = [&] {
      SeamSpan span(link_->recv);
      return inner_->RecvExact(buf, len, timeout_ms);
    }();
    if (status.ok()) link_->bytes_in += len;
    LogOp(start);
    return status;
  }

  uint64_t NowMs() const override { return inner_->NowMs(); }

 private:
  void LogOp(Clock::time_point start) {
    if (!participant_) return;
    const Clock::time_point end = Clock::now();
    std::lock_guard<std::mutex> lock(seams_->mu);
    seams_->participant_ops.push_back({start, end});
  }

  std::unique_ptr<digfl::net::Conn> inner_;
  NetSeams* seams_;
  bool participant_;
  LinkSeams* link_;
};

class TimedListener : public digfl::net::Listener {
 public:
  TimedListener(std::unique_ptr<digfl::net::Listener> inner, NetSeams* seams)
      : inner_(std::move(inner)), seams_(seams) {}

  bool valid() const override { return inner_->valid(); }
  uint16_t port() const override { return inner_->port(); }
  void Close() override { inner_->Close(); }

  Result<std::unique_ptr<digfl::net::Conn>> Accept(int timeout_ms) override {
    Result<std::unique_ptr<digfl::net::Conn>> conn =
        inner_->Accept(timeout_ms);
    if (!conn.ok()) return conn.status();
    return std::unique_ptr<digfl::net::Conn>(std::make_unique<TimedConn>(
        std::move(conn).value(), seams_, /*participant=*/true));
  }

 private:
  std::unique_ptr<digfl::net::Listener> inner_;
  NetSeams* seams_;
};

}  // namespace

Result<std::unique_ptr<digfl::net::Listener>> TimedTransport::Listen(
    uint16_t port) {
  Result<std::unique_ptr<digfl::net::Listener>> listener =
      inner_->Listen(port);
  if (!listener.ok()) return listener.status();
  return std::unique_ptr<digfl::net::Listener>(
      std::make_unique<TimedListener>(std::move(listener).value(), seams_));
}

Result<std::unique_ptr<digfl::net::Conn>> TimedTransport::Connect(
    const std::string& host, uint16_t port, int timeout_ms) {
  Result<std::unique_ptr<digfl::net::Conn>> conn =
      inner_->Connect(host, port, timeout_ms);
  if (!conn.ok()) return conn.status();
  return std::unique_ptr<digfl::net::Conn>(std::make_unique<TimedConn>(
      std::move(conn).value(), seams_, /*participant=*/false));
}

Status EpochClock::OnEpoch(const digfl::HflTrainerView& view) {
  stamps_.push_back(Clock::now());
  if (inner_ == nullptr) return Status::OK();
  if (commit_ == nullptr) return inner_->OnEpoch(view);
  const Clock::time_point start = Clock::now();
  Status status = [&] {
    SeamSpan span(*commit_);
    return inner_->OnEpoch(view);
  }();
  commit_seconds_.push_back(Seconds(start, Clock::now()));
  if (status.ok() && store_ != nullptr) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        store_->CheckpointPath(view.next_epoch), ec);
    image_bytes_.push_back(ec ? 0 : static_cast<uint64_t>(size));
  }
  return status;
}

std::vector<double> EpochSeconds(
    Clock::time_point start, const std::vector<Clock::time_point>& stamps) {
  std::vector<double> out;
  out.reserve(stamps.size());
  Clock::time_point previous = start;
  for (Clock::time_point stamp : stamps) {
    out.push_back(Seconds(previous, stamp));
    previous = stamp;
  }
  return out;
}

}  // namespace perfbench
