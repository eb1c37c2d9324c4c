// Workload vfl-paillier: the Paillier-encrypted vertical linear regression
// protocol at a 512-bit key on the Boston-like regression set, three
// participants, DIG-FL contributions on. crypto (BigInt, Montgomery,
// Paillier) is nearly all of the time.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/digfl_vfl.h"
#include "crypto/fixed_point.h"
#include "crypto/paillier.h"
#include "data/paper_datasets.h"
#include "data/partition.h"
#include "nn/linear_regression.h"
#include "telemetry/telemetry.h"
#include "vfl/encrypted_protocol.h"
#include "vfl/plain_trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace digfl;

constexpr size_t kParticipants = 3;
constexpr double kSampleFraction = 0.15;  // of Boston's 506 rows: 76
constexpr double kHoldout = 0.2;
constexpr size_t kEpochs = 2;
constexpr double kLearningRate = 0.05;
constexpr size_t kKeyBits = 512;
constexpr int kFractionBits = 24;

const char* const kOps[] = {"encrypt", "decrypt", "add", "scalar_mul"};
enum Op { kEncrypt, kDecrypt, kAdd, kScalarMul, kNumOps };

struct World {
  Dataset train;
  Dataset validation;
  VflBlockModel blocks;
  EncryptedVflConfig config;
};

World MakeWorld(uint64_t seed) {
  PaperDatasetOptions data_options;
  data_options.sample_fraction = kSampleFraction;
  data_options.seed = seed;
  PaperDatasetSpec spec = Unwrap(
      MakePaperDataset(PaperDatasetId::kBoston, data_options), "Boston data");
  Rng rng(seed ^ 0xb057);
  auto split = Unwrap(SplitHoldout(spec.data, kHoldout, rng), "holdout split");
  const size_t d = spec.data.num_features();
  World world{
      std::move(split.first), std::move(split.second),
      Unwrap(VflBlockModel::Create(
                 Unwrap(SplitFeatureBlocks(d, kParticipants), "blocks"), d),
             "block model"),
      {}};
  world.config.epochs = kEpochs;
  world.config.learning_rate = kLearningRate;
  world.config.key_bits = kKeyBits;
  world.config.fraction_bits = kFractionBits;
  world.config.seed = seed * 2654435761u + 11;
  world.config.evaluate_contributions = true;
  return world;
}

using OpCounts = std::array<uint64_t, kNumOps>;

OpCounts ReadOpCounters() {
  OpCounts counts{};
  for (int op = 0; op < kNumOps; ++op) {
    counts[op] = telemetry::Metrics()
                     .GetCounter("crypto.paillier_ops_total",
                                 {{"op", kOps[op]}})
                     .Value();
  }
  return counts;
}

// Paillier operations one run of the protocol performs, derived from its
// shape: per epoch one exchange over the training rows and one over the
// validation rows (contributions on). An exchange over m rows encrypts
// n·m residual shares and adds the n−1 later shares into the chain; per
// feature column it multiplies every nonzero encoded entry into the
// residual and sums the products, encrypts and adds one mask (or first
// encrypts a zero when the column has no nonzero entry), and the third
// party decrypts the masked column once.
OpCounts DeriveOpCounts(const World& world, const FixedPointCodec& codec) {
  const uint64_t n = kParticipants;
  OpCounts per_epoch{};
  for (const Dataset* data : {&world.train, &world.validation}) {
    const uint64_t m = data->size();
    per_epoch[kEncrypt] += n * m;
    per_epoch[kAdd] += (n - 1) * m;
    for (size_t k = 0; k < data->num_features(); ++k) {
      uint64_t nonzero = 0;
      for (size_t j = 0; j < m; ++j) {
        nonzero += !Unwrap(codec.Encode(data->x(j, k)), "encode").IsZero();
      }
      per_epoch[kScalarMul] += nonzero;
      per_epoch[kAdd] += (nonzero > 0 ? nonzero - 1 : 0) + 1;
      per_epoch[kEncrypt] += (nonzero == 0 ? 1 : 0) + 1;
      per_epoch[kDecrypt] += 1;
    }
  }
  OpCounts total{};
  for (int op = 0; op < kNumOps; ++op) total[op] = per_epoch[op] * kEpochs;
  return total;
}

std::string CheckOpCounts(const OpCounts& derived, const OpCounts& counted) {
  for (int op = 0; op < kNumOps; ++op) {
    if (derived[op] != counted[op]) {
      return std::string("paillier ") + kOps[op] + " count " +
             std::to_string(counted[op]) + " != derived " +
             std::to_string(derived[op]);
    }
  }
  return "";
}

// Plaintext reference: the same protocol without encryption, and DIG-FL's
// VFL estimator over its log.
struct Reference {
  VflTrainingLog log;
  ContributionReport phi;
};

Reference MakeReference(const World& world) {
  LinearRegression model(world.train.num_features());
  VflTrainConfig config;
  config.epochs = kEpochs;
  config.learning_rate = kLearningRate;
  Reference ref;
  ref.log = Unwrap(RunVflTraining(model, world.blocks, world.train,
                                  world.validation, config),
                   "plaintext training");
  ref.phi = Unwrap(EvaluateVflContributions(model, world.blocks, world.train,
                                            world.validation, ref.log),
                   "plaintext DIG-FL");
  return ref;
}

double MaxAbs(const Matrix& x) {
  double m = 0;
  for (size_t j = 0; j < x.rows(); ++j) {
    for (size_t k = 0; k < x.cols(); ++k) m = std::max(m, std::abs(x(j, k)));
  }
  return m;
}

// Largest |residual| (x_j·θ − y_j) over a dataset.
double MaxResidual(const Dataset& data, const Vec& theta) {
  double m = 0;
  for (size_t j = 0; j < data.size(); ++j) {
    double r = -data.y[j];
    for (size_t k = 0; k < data.num_features(); ++k) r += data.x(j, k) * theta[k];
    m = std::max(m, std::abs(r));
  }
  return m;
}

// Tolerances of the encrypted run against the plaintext one, from the
// fixed-point precision (see README, "vfl-paillier tolerance"). Every
// encode rounds to the nearest multiple of 2^-f, an error of at most
// q = 2^-(f+1). The decrypted gradient column (2/m)·Σ_j d̂_j x̂_jk carries
// residual shares summed over n parties (error ≤ n·q) times encoded
// features (error ≤ q):
//   ε_g = 2·q·(D + n·X) + 2·n·q²,  D = max |residual|, X = max |x|.
// A parameter error e grows by at most the Lipschitz constant of the
// gradient, L = 2·d·X², so after t epochs
//   e_t = (1 + α·L)·e_{t−1} + α·ε_g.
// φ̂_{t,i} = α·<v_i, g_i> moves by at most α·(|v_i|₁·δg + |g_i|₁·δv + w·δg·δv)
// with δg, δv the gradient errors on the training and validation rows at
// e_{t−1}. Both tolerances are doubled as a margin for the double-precision
// arithmetic around the fixed-point steps.
struct Tolerance {
  double params = 0;
  std::vector<std::vector<double>> phi;  // [epoch][participant]
};

Tolerance DeriveTolerance(const World& world, const Reference& ref) {
  const double q = std::ldexp(1.0, -(kFractionBits + 1));
  const double n = kParticipants;
  const size_t d = world.train.num_features();
  const double lr = kLearningRate;
  auto gradient_error = [&](const Dataset& data, const Vec& theta, double e) {
    const double x = MaxAbs(data.x);
    const double lipschitz = 2.0 * d * x * x;
    const double residual = MaxResidual(data, theta) + d * x * e;
    return 2 * q * (residual + n * x) + 2 * n * q * q + lipschitz * e;
  };
  LinearRegression model(d);
  Tolerance tol;
  double e = 0;
  for (size_t t = 0; t < kEpochs; ++t) {
    const Vec& theta = ref.log.epochs[t].params_before;
    const double dg = gradient_error(world.train, theta, e);
    const double dv = gradient_error(world.validation, theta, e);
    const Vec v = Unwrap(model.Gradient(theta, world.validation), "v_t");
    const Vec& scaled = ref.log.epochs[t].scaled_gradient;
    std::vector<double> row;
    for (size_t i = 0; i < kParticipants; ++i) {
      const FeatureBlock& b = world.blocks.block(i);
      double v1 = 0, g1 = 0;
      for (size_t k = b.begin; k < b.end; ++k) {
        v1 += std::abs(v[k]);
        g1 += std::abs(scaled[k]) / lr;
      }
      row.push_back(2 * lr * (v1 * dg + g1 * dv + b.width() * dg * dv));
    }
    tol.phi.push_back(std::move(row));
    e = e + lr * dg;  // dg already includes L·e_{t−1}
  }
  tol.params = 2 * e;
  return tol;
}

std::string CheckAgainstPlaintext(const Reference& ref, const Tolerance& tol,
                                  const EncryptedVflResult& out) {
  for (size_t k = 0; k < ref.log.final_params.size(); ++k) {
    const double err = std::abs(out.final_params[k] - ref.log.final_params[k]);
    if (!(err <= tol.params)) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "parameter %zu off by %.3g (tolerance %.3g)", k, err,
                    tol.params);
      return buf;
    }
  }
  if (out.per_epoch_contributions.size() != kEpochs) {
    return "encrypted run has the wrong number of phi rows";
  }
  for (size_t t = 0; t < kEpochs; ++t) {
    for (size_t i = 0; i < kParticipants; ++i) {
      const double err = std::abs(out.per_epoch_contributions[t][i] -
                                  ref.phi.per_epoch[t][i]);
      if (!(err <= tol.phi[t][i])) {
        char buf[128];
        std::snprintf(buf, sizeof buf,
                      "phi[%zu][%zu] off by %.3g (tolerance %.3g)", t, i, err,
                      tol.phi[t][i]);
        return buf;
      }
    }
  }
  return "";
}

// One homomorphism probe on the run's key: Dec(Enc(a)·Enc(b)) = a+b mod n
// and Dec(Enc(a)^k) = k·a mod n.
struct Homomorphism {
  BigInt a, b, k;
  BigInt sum;     // Dec(Enc(a)·Enc(b))
  BigInt scaled;  // Dec(Enc(a)^k)
};

std::string CheckHomomorphism(const PaillierPublicKey& key,
                              const Homomorphism& h) {
  if (h.sum != (h.a + h.b) % key.n) return "Dec(Enc(a)Enc(b)) != a+b mod n";
  if (h.scaled != (h.k * h.a) % key.n) return "Dec(Enc(a)^k) != k*a mod n";
  return "";
}

// Plaintexts and multipliers shaped like the run's: fixed-point encodings
// of the labels with alternating sign (residual shares), and the encoded
// nonzero feature entries the protocol multiplies by — negative ones
// encode as n − |v|, which makes their exponentiations long, so the mean
// cost depends on the data's mix of signs. `all_multipliers` takes every
// entry of the training and validation rows (one epoch's scalar
// multiplications, exactly); otherwise the first `count` in row order.
struct Operands {
  std::vector<BigInt> plaintexts;
  std::vector<BigInt> multipliers;
};

Operands MakeOperands(const World& world, const FixedPointCodec& codec,
                      size_t count, bool all_multipliers) {
  Operands ops;
  for (size_t j = 0; j < count; ++j) {
    const double y = world.train.y[j % world.train.size()];
    ops.plaintexts.push_back(
        Unwrap(codec.Encode(j % 2 == 0 ? y : -y), "encode label"));
  }
  for (const Dataset* data : {&world.train, &world.validation}) {
    for (size_t j = 0; j < data->size(); ++j) {
      for (size_t k = 0; k < data->num_features(); ++k) {
        if (!all_multipliers && ops.multipliers.size() == count) return ops;
        BigInt factor = Unwrap(codec.Encode(data->x(j, k)), "encode feature");
        if (!factor.IsZero()) ops.multipliers.push_back(std::move(factor));
      }
    }
  }
  return ops;
}

// Mean microseconds per Paillier operation on `operands`, and one
// homomorphism probe per plaintext (the first failure is returned).
struct OpCosts {
  std::array<double, kNumOps> us{};
  std::string homomorphism_failure;
};

OpCosts MeasureOps(const PaillierKeyPair& keys, const Operands& operands,
                   Rng& rng) {
  const PaillierPublicKey& pk = keys.public_key;
  const PaillierPrivateKey& sk = keys.private_key;
  std::array<double, kNumOps> seconds{};
  std::array<size_t, kNumOps> calls{};
  auto timed = [&](Op op, auto&& call) {
    const Clock::time_point start = Clock::now();
    auto out = call();
    seconds[op] += Seconds(start, Clock::now());
    ++calls[op];
    return out;
  };
  OpCosts costs;
  auto check = [&](const Homomorphism& h) {
    if (costs.homomorphism_failure.empty()) {
      costs.homomorphism_failure = CheckHomomorphism(pk, h);
    }
  };
  const std::vector<BigInt>& plain = operands.plaintexts;
  std::vector<PaillierCiphertext> cts;
  for (const BigInt& p : plain) {
    cts.push_back(Unwrap(
        timed(kEncrypt, [&] { return Paillier::Encrypt(pk, p, rng); }),
        "encrypt"));
  }
  const std::vector<BigInt>& mult = operands.multipliers;
  for (size_t i = 0; i < cts.size(); ++i) {
    const size_t j = (i + 1) % cts.size();
    const BigInt& k = mult[i % mult.size()];
    const PaillierCiphertext sum =
        timed(kAdd, [&] { return Paillier::Add(pk, cts[i], cts[j]); });
    const PaillierCiphertext scaled =
        timed(kScalarMul, [&] { return Paillier::ScalarMul(pk, cts[i], k); });
    auto decrypt = [&](const PaillierCiphertext& c) {
      return Unwrap(
          timed(kDecrypt, [&] { return Paillier::Decrypt(pk, sk, c); }),
          "decrypt");
    };
    check({plain[i], plain[j], k, decrypt(sum), decrypt(scaled)});
  }
  // The remaining multipliers, for the scalar-multiplication mean only.
  for (size_t m = cts.size(); m < mult.size(); ++m) {
    timed(kScalarMul,
          [&] { return Paillier::ScalarMul(pk, cts[m % cts.size()], mult[m]); });
  }
  for (int op = 0; op < kNumOps; ++op) {
    costs.us[op] = calls[op] ? seconds[op] / calls[op] * 1e6 : 0;
  }
  return costs;
}

}  // namespace

RunResult RunVflPaillier(const RunArgs& args) {
  const World world = MakeWorld(args.seed);
  const double setup_s = Seconds(ProcessStart(), Clock::now());

  RunResult result;
  std::vector<double> run_s;
  std::vector<EncryptedVflResult> outputs;
  std::vector<OpCounts> counted;
  double peak_rss_mb = 0;  // after the first (cold) round
  const Clock::time_point measure_start = Clock::now();
  while (run_s.empty() ||
         Seconds(measure_start, Clock::now()) < args.seconds) {
    const OpCounts before = ReadOpCounters();
    const Clock::time_point start = Clock::now();
    outputs.push_back(Unwrap(RunEncryptedVflLinReg(world.train,
                                                   world.validation,
                                                   world.blocks, world.config),
                             "encrypted VFL"));
    run_s.push_back(Seconds(start, Clock::now()));
    std::fprintf(stderr, "round %zu: %.4f s\n", run_s.size(), run_s.back());
    const OpCounts after = ReadOpCounters();
    OpCounts delta{};
    for (int op = 0; op < kNumOps; ++op) delta[op] = after[op] - before[op];
    counted.push_back(delta);
    if (counted.size() == 1) peak_rss_mb = PeakRssMb();
    ++result.attempted;
  }

  // Checks: the run's own key (same seed and size as the protocol's
  // keygen), homomorphisms, operation counts, and the plaintext reference.
  Rng keygen_rng(world.config.seed);
  const Clock::time_point keygen_start = Clock::now();
  const PaillierKeyPair keys = Unwrap(
      Paillier::GenerateKeyPair(kKeyBits, keygen_rng), "keygen");
  const double keygen_s = Seconds(keygen_start, Clock::now());
  const FixedPointCodec codec(keys.public_key.n, kFractionBits);
  const OpCounts derived = DeriveOpCounts(world, codec);
  Rng op_rng(args.seed ^ 0x0b5);
  const OpCosts costs = MeasureOps(
      keys, MakeOperands(world, codec, args.trace ? 48 : 4, args.trace),
      op_rng);
  const Reference ref = MakeReference(world);
  const Tolerance tol = DeriveTolerance(world, ref);
  for (size_t r = 0; r < outputs.size() && result.check_failure.empty(); ++r) {
    result.check_failure = CheckOpCounts(derived, counted[r]);
    if (result.check_failure.empty()) {
      result.check_failure = CheckAgainstPlaintext(ref, tol, outputs[r]);
    }
  }
  if (result.check_failure.empty()) {
    result.check_failure = costs.homomorphism_failure;
  }

  const double run_median = Median(run_s);
  if (!args.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("run_s", run_median, "s");
    result.Add("peak_rss_mb", peak_rss_mb, "MiB");
    return result;
  }

  // Ledger: keygen plus count × per-operation cost for each Paillier
  // operation; vfl.other_s is the rest of run_s (fixed-point coding,
  // masking, the plaintext steps).
  result.Add("wire_bytes_per_epoch",
             static_cast<double>(outputs.front().comm.TotalBytes()) / kEpochs,
             "bytes");
  double attributed = keygen_s;
  result.Add("crypto.keygen_s", keygen_s, "s");
  for (int op = 0; op < kNumOps; ++op) {
    result.Add(std::string("crypto.") + kOps[op] + "_calls",
               static_cast<double>(derived[op]), "count");
  }
  for (int op = 0; op < kNumOps; ++op) {
    result.Add(std::string("crypto.") + kOps[op] + "_us", costs.us[op], "us");
    attributed += static_cast<double>(derived[op]) * costs.us[op] * 1e-6;
  }
  result.Add("crypto.attributed_s", attributed, "s");
  result.Add("vfl.other_s", run_median - attributed, "s");
  result.Add("trace.run_s", run_median, "s");
  return result;
}

int SelfTestVflPaillier(const RunArgs& args) {
  const World world = MakeWorld(args.seed);
  const OpCounts before = ReadOpCounters();
  const EncryptedVflResult truth = Unwrap(
      RunEncryptedVflLinReg(world.train, world.validation, world.blocks,
                            world.config),
      "encrypted VFL");
  const OpCounts after = ReadOpCounters();
  OpCounts counted{};
  for (int op = 0; op < kNumOps; ++op) counted[op] = after[op] - before[op];

  Rng keygen_rng(world.config.seed);
  const PaillierKeyPair keys = Unwrap(
      Paillier::GenerateKeyPair(kKeyBits, keygen_rng), "keygen");
  const FixedPointCodec codec(keys.public_key.n, kFractionBits);
  const OpCounts derived = DeriveOpCounts(world, codec);
  const Reference ref = MakeReference(world);
  const Tolerance tol = DeriveTolerance(world, ref);
  Rng op_rng(args.seed);
  const Operands operands = MakeOperands(world, codec, 4, false);
  const OpCosts costs = MeasureOps(keys, operands, op_rng);

  int failures = Expect("vfl-paillier true outputs vs plaintext",
                        CheckAgainstPlaintext(ref, tol, truth), false);
  failures += Expect("vfl-paillier true op counts",
                     CheckOpCounts(derived, counted), false);
  failures += Expect("vfl-paillier true homomorphisms",
                     costs.homomorphism_failure, false);
  std::fprintf(stderr,
               "selftest   vfl tolerance: params %.3g, phi[0][0] %.3g\n",
               tol.params, tol.phi[0][0]);

  EncryptedVflResult swapped = truth;
  std::swap(swapped.per_epoch_contributions[0],
            swapped.per_epoch_contributions[1]);
  failures += Expect("vfl-paillier plaintext: swapped phi rows",
                     CheckAgainstPlaintext(ref, tol, swapped), true);

  EncryptedVflResult flipped = truth;
  uint64_t bits;
  std::memcpy(&bits, &flipped.final_params[0], sizeof bits);
  bits ^= uint64_t{1} << 40;
  std::memcpy(&flipped.final_params[0], &bits, sizeof bits);
  failures += Expect("vfl-paillier plaintext: flipped bit in a parameter",
                     CheckAgainstPlaintext(ref, tol, flipped), true);

  for (int op = 0; op < kNumOps; ++op) {
    OpCounts off = counted;
    off[op] += 1;
    failures += Expect(std::string("vfl-paillier op count: ") + kOps[op] +
                           " off by one",
                       CheckOpCounts(derived, off), true);
  }

  const PaillierPublicKey& pk = keys.public_key;
  Rng rng(args.seed ^ 0x40);
  const BigInt a = operands.plaintexts[0], b = operands.plaintexts[1];
  const BigInt k = operands.multipliers[0];
  const PaillierCiphertext ca = Unwrap(Paillier::Encrypt(pk, a, rng), "enc");
  const PaillierCiphertext cb = Unwrap(Paillier::Encrypt(pk, b, rng), "enc");
  Homomorphism h{a, b, k,
                 Unwrap(Paillier::Decrypt(pk, keys.private_key,
                                          Paillier::Add(pk, ca, cb)),
                        "dec"),
                 Unwrap(Paillier::Decrypt(pk, keys.private_key,
                                          Paillier::ScalarMul(pk, ca, k)),
                        "dec")};
  failures += Expect("vfl-paillier homomorphism: true probe",
                     CheckHomomorphism(pk, h), false);
  Homomorphism wrong_sum = h;
  wrong_sum.sum = (wrong_sum.sum + BigInt(1)) % pk.n;
  failures += Expect("vfl-paillier homomorphism: sum off by one",
                     CheckHomomorphism(pk, wrong_sum), true);
  Homomorphism wrong_scaled = h;
  wrong_scaled.k = wrong_scaled.k + BigInt(1);
  failures += Expect("vfl-paillier homomorphism: multiplier off by one",
                     CheckHomomorphism(pk, wrong_scaled), true);
  return failures;
}

}  // namespace perfbench
