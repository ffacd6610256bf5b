// Unit tests for the TrueNorth digital neuron model: integration, leak,
// threshold, reset modes, negative-threshold behavior, stochastic modes,
// and hardware-range clamping.
#include <gtest/gtest.h>

#include "src/core/neuron_model.hpp"

namespace nsc::core {
namespace {

const util::CounterPrng kPrng(1234);

NeuronParams basic() {
  NeuronParams p;
  p.weight[0] = 3;
  p.weight[1] = -2;
  p.threshold = 10;
  p.leak = 0;
  return p;
}

TEST(NeuronModel, DeterministicSynapseDelta) {
  const NeuronParams p = basic();
  EXPECT_EQ(synapse_delta(p, 0, kPrng, 0, 0, 0, 0), 3);
  EXPECT_EQ(synapse_delta(p, 1, kPrng, 0, 0, 0, 0), -2);
}

TEST(NeuronModel, StochasticSynapseExpectedValue) {
  NeuronParams p = basic();
  p.weight[0] = 64;  // expect +1 with probability 64/256 = 0.25
  p.stochastic_weight = 1;  // type 0 stochastic
  long sum = 0;
  const int n = 40000;
  for (int t = 0; t < n; ++t) sum += synapse_delta(p, 0, kPrng, 0, 0, t, 0);
  EXPECT_NEAR(static_cast<double>(sum) / n, 0.25, 0.02);
}

TEST(NeuronModel, StochasticSynapseNegativeWeight) {
  NeuronParams p = basic();
  p.weight[2] = -128;  // expect -1 with probability 0.5
  p.stochastic_weight = 1u << 2;
  long sum = 0;
  const int n = 40000;
  for (int t = 0; t < n; ++t) sum += synapse_delta(p, 2, kPrng, 0, 0, t, 0);
  EXPECT_NEAR(static_cast<double>(sum) / n, -0.5, 0.02);
}

TEST(NeuronModel, StochasticSynapseOnlyMarkedTypes) {
  NeuronParams p = basic();
  p.stochastic_weight = 1u << 1;  // only type 1
  EXPECT_EQ(synapse_delta(p, 0, kPrng, 0, 0, 0, 0), 3);  // type 0 stays exact
}

TEST(NeuronModel, DeterministicLeak) {
  NeuronParams p = basic();
  p.leak = -4;
  EXPECT_EQ(leak_delta(p, kPrng, 0, 0, 0, 0), -4);
}

TEST(NeuronModel, StochasticLeakExpectedValue) {
  NeuronParams p = basic();
  p.leak = 128;  // +1 with probability 0.5
  p.stochastic_leak = 1;
  long sum = 0;
  const int n = 40000;
  for (int t = 0; t < n; ++t) sum += leak_delta(p, kPrng, 0, 0, t, 0);
  EXPECT_NEAR(static_cast<double>(sum) / n, 0.5, 0.02);
}

TEST(NeuronModel, FiresAtThresholdInclusive) {
  const NeuronParams p = basic();
  std::int32_t v = 10;
  EXPECT_TRUE(threshold_fire_reset(v, p, kPrng, 0, 0, 0));
  v = 9;
  EXPECT_FALSE(threshold_fire_reset(v, p, kPrng, 0, 0, 0));
  EXPECT_EQ(v, 9);
}

TEST(NeuronModel, AbsoluteReset) {
  NeuronParams p = basic();
  p.reset_v = 2;
  std::int32_t v = 15;
  EXPECT_TRUE(threshold_fire_reset(v, p, kPrng, 0, 0, 0));
  EXPECT_EQ(v, 2);
}

TEST(NeuronModel, LinearResetCarriesOvershoot) {
  NeuronParams p = basic();
  p.reset_mode = ResetMode::kLinear;
  std::int32_t v = 17;
  EXPECT_TRUE(threshold_fire_reset(v, p, kPrng, 0, 0, 0));
  EXPECT_EQ(v, 7);  // 17 - 10
}

TEST(NeuronModel, NoneResetKeepsPotential) {
  NeuronParams p = basic();
  p.reset_mode = ResetMode::kNone;
  std::int32_t v = 12;
  EXPECT_TRUE(threshold_fire_reset(v, p, kPrng, 0, 0, 0));
  EXPECT_EQ(v, 12);
}

TEST(NeuronModel, NegativeSaturation) {
  NeuronParams p = basic();
  p.neg_threshold = 5;
  std::int32_t v = -9;
  EXPECT_FALSE(threshold_fire_reset(v, p, kPrng, 0, 0, 0));
  EXPECT_EQ(v, -5);
}

TEST(NeuronModel, NegativeReset) {
  NeuronParams p = basic();
  p.neg_threshold = 5;
  p.negative_mode = NegativeMode::kReset;
  p.reset_v = 1;
  std::int32_t v = -5;  // at the floor: kReset triggers at <= -beta
  EXPECT_FALSE(threshold_fire_reset(v, p, kPrng, 0, 0, 0));
  EXPECT_EQ(v, -1);
}

TEST(NeuronModel, StochasticThresholdRaisesEffectiveAlpha) {
  NeuronParams p = basic();
  p.threshold = 10;
  p.threshold_mask = 0x7;  // jitter in [0, 7]
  int fired = 0;
  const int n = 40000;
  for (int t = 0; t < n; ++t) {
    std::int32_t v = 13;  // fires iff jitter <= 3 → p = 4/8
    fired += threshold_fire_reset(v, p, kPrng, 0, 0, t) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(fired) / n, 0.5, 0.02);
}

TEST(NeuronModel, JitterPastInt32MaxDoesNotOverflow) {
  // α = kThresholdMax with the widest unsigned mask: some draws put
  // α + jitter past INT32_MAX. The sum, the compare and the linear reset are
  // int64, so the lane simply does not fire (UBSan-clean).
  NeuronParams p = basic();
  p.threshold = kThresholdMax;
  p.threshold_mask = 0x7FFFFFFF;
  p.reset_mode = ResetMode::kLinear;
  const std::uint32_t past = static_cast<std::uint32_t>(INT32_MAX - kThresholdMax);
  Tick t = 0;
  while ((static_cast<std::uint32_t>(kPrng.draw(0, 0, static_cast<std::uint64_t>(t),
                                                kSaltThreshold)) &
          p.threshold_mask) <= past) {
    ++t;
  }
  std::int32_t v = kPotentialMax;
  EXPECT_FALSE(threshold_fire_reset(v, p, kPrng, 0, 0, t));
  EXPECT_EQ(v, kPotentialMax);
}

TEST(NeuronModel, ClampPotentialRange) {
  EXPECT_EQ(clamp_potential(static_cast<std::int64_t>(kPotentialMax) + 100), kPotentialMax);
  EXPECT_EQ(clamp_potential(static_cast<std::int64_t>(kPotentialMin) - 100), kPotentialMin);
  EXPECT_EQ(clamp_potential(12345), 12345);
}

TEST(NeuronModel, LeakThresholdUpdateComposes) {
  NeuronParams p = basic();
  p.leak = 3;
  p.threshold = 10;
  std::int32_t v = 7;
  // 7 + 3 = 10 → fires, absolute reset to 0.
  EXPECT_TRUE(leak_threshold_update(v, p, kPrng, 0, 0, 0));
  EXPECT_EQ(v, 0);
}

TEST(NeuronModel, LeakDrivenOscillatorPeriod) {
  // Pure leak-driven neuron: fires every ceil(alpha/leak) ticks.
  NeuronParams p;
  p.leak = 3;
  p.threshold = 9;
  std::int32_t v = 0;
  int fires = 0;
  for (int t = 0; t < 300; ++t) {
    fires += leak_threshold_update(v, p, kPrng, 0, 0, t) ? 1 : 0;
  }
  EXPECT_EQ(fires, 100);  // period exactly 3
}

}  // namespace
}  // namespace nsc::core

namespace nsc::core {
namespace {

TEST(NeuronModel, LeakReversalFollowsPotentialSign) {
  NeuronParams p;
  p.leak = -3;  // decay toward zero from either side
  p.leak_reversal = 1;
  p.threshold = 100;
  EXPECT_EQ(leak_delta(p, kPrng, 0, 0, 0, 10), -3);
  EXPECT_EQ(leak_delta(p, kPrng, 0, 0, 0, -10), 3);
  EXPECT_EQ(leak_delta(p, kPrng, 0, 0, 0, 0), 0);
}

TEST(NeuronModel, LeakReversalSymmetricDecayReachesZero) {
  NeuronParams p;
  p.leak = -2;
  p.leak_reversal = 1;
  p.threshold = 1000;
  p.neg_threshold = 1000;
  for (std::int32_t start : {9, -9}) {
    std::int32_t v = start;
    for (int t = 0; t < 20; ++t) (void)leak_threshold_update(v, p, kPrng, 0, 0, t);
    // Decays to the band around zero and oscillates within |leak| of it.
    EXPECT_LE(std::abs(v), 2) << "start " << start;
  }
}

TEST(NeuronModel, LeakReversalPositiveLeakRepelsFromZero) {
  NeuronParams p;
  p.leak = 2;
  p.leak_reversal = 1;
  p.threshold = 50;
  p.neg_threshold = 50;
  std::int32_t v = -1;
  for (int t = 0; t < 10; ++t) (void)leak_threshold_update(v, p, kPrng, 0, 0, t);
  EXPECT_LT(v, -10);  // driven away from zero on the negative side
}

TEST(NeuronModel, StochasticLeakReversalKeepsExpectedMagnitude) {
  NeuronParams p;
  p.leak = -128;  // p = 0.5 of a unit step toward zero
  p.leak_reversal = 1;
  p.stochastic_leak = 1;
  long sum = 0;
  const int n = 40000;
  for (int t = 0; t < n; ++t) sum += leak_delta(p, kPrng, 0, 0, t, 100);
  EXPECT_NEAR(static_cast<double>(sum) / n, -0.5, 0.02);
  sum = 0;
  for (int t = 0; t < n; ++t) sum += leak_delta(p, kPrng, 0, 0, t, -100);
  EXPECT_NEAR(static_cast<double>(sum) / n, 0.5, 0.02);
}

}  // namespace
}  // namespace nsc::core
