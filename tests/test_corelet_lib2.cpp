// Tests for the extended corelet library: pooling, coincidence, threshold
// banks, temporal filters, stochastic rate scaling, and spiking logic gates,
// all executed on the TrueNorth backend.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "src/core/spike_sink.hpp"
#include "src/analysis/lint.hpp"
#include "src/corelet/lib2.hpp"
#include "src/corelet/place.hpp"
#include "src/tn/chip_sim.hpp"

namespace nsc::corelet {
namespace {

using core::InputSchedule;
using core::Spike;
using core::Tick;
using core::VectorSink;

std::vector<Spike> run_corelet(const Corelet& c, const InputSchedule& in, Tick ticks,
                               std::uint64_t seed = 1) {
  PlacedCorelet placed = place(c, fit_geometry(c));
  placed.network.seed = seed;
  analysis::require_deployable(placed.network);
  tn::TrueNorthSimulator sim(placed.network);
  VectorSink sink;
  sim.run(ticks, &in, &sink);
  return sink.spikes();
}

int count_neuron(const std::vector<Spike>& spikes, std::uint16_t neuron) {
  int n = 0;
  for (const Spike& s : spikes) n += s.neuron == neuron ? 1 : 0;
  return n;
}

TEST(MaxPool, FiresOnAnyGroupMember) {
  const Corelet c = make_max_pool(2, 3);  // groups of 3
  InputSchedule in;
  in.add(0, 0, 1);  // group 0, member 1
  in.add(2, 0, 4);  // group 1, member 1
  in.add(2, 0, 5);  // group 1, member 2 (same tick: still one output spike)
  in.finalize();
  const auto spikes = run_corelet(c, in, 5);
  ASSERT_EQ(spikes.size(), 2u);
  EXPECT_EQ(spikes[0], (Spike{0, 0, 0}));
  EXPECT_EQ(spikes[1], (Spike{2, 0, 1}));
}

TEST(MaxPool, RejectsBadShape) {
  EXPECT_THROW((void)make_max_pool(0, 4), std::out_of_range);
  EXPECT_THROW((void)make_max_pool(64, 5), std::out_of_range);  // 320 axons
}

TEST(Coincidence, RequiresSameTickPair) {
  const Corelet c = make_coincidence(4);
  InputSchedule in;
  in.add(0, 0, 2);      // A2 alone -> no output
  in.add(3, 0, 2);      // A2 ...
  in.add(3, 0, 4 + 2);  // ... with B2 -> fire
  in.add(5, 0, 1);      // A1 at t=5, B1 at t=6 -> no output
  in.add(6, 0, 4 + 1);
  in.finalize();
  const auto spikes = run_corelet(c, in, 10);
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0], (Spike{3, 0, 2}));
}

TEST(ThresholdBank, LaddersByInputRate) {
  const Corelet c = make_threshold_bank(16, {2, 6, 12});
  InputSchedule in;
  // Drive 4 of 16 inputs every tick: per-tick count = 4 -> only level-2
  // neuron (cut 2) is supercritical.
  for (Tick t = 0; t < 50; ++t) {
    for (int i = 0; i < 4; ++i) in.add(t, 0, static_cast<std::uint16_t>(i));
  }
  in.finalize();
  const auto spikes = run_corelet(c, in, 55);
  EXPECT_GT(count_neuron(spikes, 0), 20);  // (4-2)/2 per tick -> ~1/tick
  EXPECT_EQ(count_neuron(spikes, 1), 0);
  EXPECT_EQ(count_neuron(spikes, 2), 0);
}

TEST(ThresholdBank, AllLevelsAtHighRate) {
  const Corelet c = make_threshold_bank(16, {2, 6, 12});
  InputSchedule in;
  for (Tick t = 0; t < 50; ++t) {
    for (int i = 0; i < 16; ++i) in.add(t, 0, static_cast<std::uint16_t>(i));
  }
  in.finalize();
  const auto spikes = run_corelet(c, in, 55);
  EXPECT_GT(count_neuron(spikes, 0), 20);
  EXPECT_GT(count_neuron(spikes, 1), 20);
  EXPECT_GT(count_neuron(spikes, 2), 10);
}

TEST(TemporalFilter, TracksRateAndDecays) {
  const Corelet c = make_temporal_filter(2, 4);
  InputSchedule in;
  for (Tick t = 0; t < 40; ++t) in.add(t, 0, 0);  // channel 0 at full rate
  in.finalize();
  const auto spikes = run_corelet(c, in, 80);
  const int on_phase = count_neuron(spikes, 0);
  // Full-rate input through gain-4/threshold-4 integrator ≈ ~1 spike/tick
  // minus the 1/tick decay share.
  EXPECT_GT(on_phase, 25);
  EXPECT_LT(on_phase, 41);
  EXPECT_EQ(count_neuron(spikes, 1), 0);  // silent channel stays silent
}

TEST(RateScaler, ScalesByNumOver256) {
  const Corelet c = make_rate_scaler(1, 64);  // 1/4 rate
  InputSchedule in;
  const int n = 4000;
  for (Tick t = 0; t < n; ++t) in.add(t, 0, 0);
  in.finalize();
  const auto spikes = run_corelet(c, in, n + 2, 77);
  EXPECT_NEAR(static_cast<double>(spikes.size()) / n, 0.25, 0.03);
}

TEST(RateScaler, FullRateIsDeterministicIdentity) {
  const Corelet c = make_rate_scaler(1, 256);
  InputSchedule in;
  for (Tick t = 0; t < 100; ++t) in.add(t, 0, 0);
  in.finalize();
  const auto spikes = run_corelet(c, in, 102);
  EXPECT_EQ(spikes.size(), 100u);
}

// gtest names each case after its parameter printed as raw bytes, so every
// byte of GateCase is part of a test name. `tag` fills what would otherwise be
// uninitialised padding, which made the names change from run to run; its
// values keep the names the cases are already listed under.
struct GateCase {
  GateKind kind;
  bool a, b;
  bool want;
  std::uint8_t tag;
  int latency;  ///< Output tick relative to input tick.
};
static_assert(sizeof(GateCase) == 12 && offsetof(GateCase, tag) == 7);

class GateTruth : public ::testing::TestWithParam<GateCase> {};

TEST_P(GateTruth, MatchesTruthTable) {
  const GateCase gc = GetParam();
  const Corelet c = make_gate(gc.kind);
  InputSchedule in;
  const Tick t0 = 3;
  if (gc.a) in.add(t0, 0, 0);
  if (gc.b) in.add(t0, 0, 1);  // B, or the clock for NOT
  in.finalize();
  const auto spikes = run_corelet(c, in, 10);
  const int fired = count_neuron(spikes, 0);
  EXPECT_EQ(fired, gc.want ? 1 : 0);
  if (gc.want) {
    for (const Spike& s : spikes) {
      if (s.neuron == 0) {
        EXPECT_EQ(s.tick, t0 + gc.latency);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TruthTables, GateTruth,
    ::testing::Values(GateCase{GateKind::kOr, false, false, false, 0, 0},
                      GateCase{GateKind::kOr, true, false, true, 0, 0},
                      GateCase{GateKind::kOr, false, true, true, 0xEF, 0},
                      GateCase{GateKind::kOr, true, true, true, 0, 0},
                      GateCase{GateKind::kAnd, true, false, false, 0, 0},
                      GateCase{GateKind::kAnd, false, true, false, 0x1B, 0},
                      GateCase{GateKind::kAnd, true, true, true, 0xCA, 0},
                      // NOT: b is the clock; output = clock AND !a.
                      GateCase{GateKind::kNot, false, true, true, 0, 0},
                      GateCase{GateKind::kNot, true, true, false, 0, 0},
                      GateCase{GateKind::kXor, true, false, true, 0, 1},
                      GateCase{GateKind::kXor, false, true, true, 0, 1},
                      GateCase{GateKind::kXor, true, true, false, 0, 1},
                      GateCase{GateKind::kXor, false, false, false, 0, 1}));

TEST(Gates, AndIgnoresStaggeredInputs) {
  const Corelet c = make_gate(GateKind::kAnd);
  InputSchedule in;
  in.add(2, 0, 0);
  in.add(3, 0, 1);  // one tick late: no AND
  in.finalize();
  EXPECT_EQ(run_corelet(c, in, 8).size(), 0u);
}

}  // namespace
}  // namespace nsc::corelet
