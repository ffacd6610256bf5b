// nsc_lint_fixture — writes tiny crafted network and checkpoint files for
// the nsc_lint CLI exit-code tests (tools/CMakeLists.txt). nsc_netgen cannot
// produce these: it refuses to write networks that fail lint, which is
// exactly what the error fixture must be — and no simulator will ever emit a
// forged or truncated NSCK image.
//
//   nsc_lint_fixture --dir DIR
//
// Network fixtures written into DIR:
//   lint_clean.nsc — a 4-core ring whose only finding is the informational
//                    recurrent loop (deployable even at --fail-on=warn)
//   lint_warn.nsc  — the ring plus one neuron starting at its threshold
//                    (NSC014, warn; deployable only at --fail-on=error)
//   lint_error.nsc — the ring plus one zero-delay route (NSC007, error;
//                    never deployable)
//
// Checkpoint fixtures (audited by `nsc_lint --checkpoint`, docs/ANALYSIS.md):
//   ck_valid.nsck         — consistent snapshot of the ring (audits clean)
//   ck_forged_magic.nsck  — first magic byte flipped (NSC048, exit 2)
//   ck_truncated.nsck     — valid image cut mid-payload (NSC048, exit 2)
//   ck_bad_geometry.nsck  — header claims ~2^31 cores (NSC048, exit 2;
//                           the loader must reject it BEFORE allocating)
//   ck_seed_mismatch.nsck — wrong network seed (NSC049 vs lint_clean.nsc)
//   ck_bad_bitmap.nsck    — fault bitmap byte = 2 (NSC050, exit 2)
//   ck_bad_potential.nsck — membrane potential above the 20-bit envelope
//                           (NSC051, exit 2)
//   ck_stale_tick.nsck    — header tick behind stats.ticks (NSC052, warn)
//   ck_dead_delay.nsck    — dead core with buffered deliveries
//                           (NSC053 info + NSC054 warn)
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/core/network.hpp"
#include "src/core/network_io.hpp"
#include "src/core/snapshot.hpp"
#include "src/util/bitrow.hpp"
#include "tools/cli.hpp"

namespace {

// 16 delay slots x 4 bit-words per slot — the snapshot's per-core slice of
// the axonal delay buffer (src/core/snapshot.cpp).
constexpr std::size_t kDelayWordsPerCore =
    static_cast<std::size_t>(nsc::core::kMaxDelay + 1) * nsc::util::BitRow256::kWords;

nsc::core::Network make_ring() {
  using namespace nsc;
  core::Network net(core::Geometry{1, 1, 2, 2});
  for (core::CoreId c = 0; c < 4; ++c) {
    for (int j = 0; j < core::kCoreSize; ++j) {
      net.core(c).crossbar.set(j, j);
      core::NeuronParams& p = net.core(c).neuron[j];
      p.threshold = 100;
      p.target = {(c + 1) % 4, static_cast<std::uint16_t>(j), 1};
    }
  }
  return net;
}

nsc::core::Snapshot make_snapshot(const nsc::core::Network& net) {
  using namespace nsc;
  core::Snapshot snap;
  snap.backend = core::SnapshotBackend::kCompass;
  snap.geom = net.geom;
  snap.net_seed = net.seed;
  snap.tick = 5;
  snap.stats.ticks = 5;
  const auto ncores = static_cast<std::size_t>(net.geom.total_cores());
  snap.v.assign(ncores * core::kCoreSize, 0);
  snap.delay_words.assign(ncores * kDelayWordsPerCore, 0);
  return snap;
}

std::string snapshot_bytes(const nsc::core::Snapshot& snap) {
  std::ostringstream os(std::ios::binary);
  nsc::core::save_snapshot(snap, os);
  return os.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("write failed: " + path);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const nsc::cli::Args a(argc, argv, {.values = {"--dir"}});
    const std::string dir = a.str("--dir");
    nsc::cli::check({{dir.empty(), "--dir is required"}});
    const std::string base = dir + "/";
    const nsc::core::Network ring = make_ring();
    nsc::core::save_network(ring, base + "lint_clean.nsc");

    nsc::core::Network warn = make_ring();
    warn.core(0).neuron[0].init_v = warn.core(0).neuron[0].threshold;  // NSC014
    nsc::core::save_network(warn, base + "lint_warn.nsc");

    nsc::core::Network error = make_ring();
    error.core(0).neuron[0].target.delay = 0;  // NSC007
    nsc::core::save_network(error, base + "lint_error.nsc");

    // --- checkpoint-audit fixtures ---
    const std::string valid = snapshot_bytes(make_snapshot(ring));
    write_bytes(base + "ck_valid.nsck", valid);

    std::string forged = valid;
    forged[0] = static_cast<char>(forged[0] ^ 0x5A);  // NSC048: wrong magic
    write_bytes(base + "ck_forged_magic.nsck", forged);

    // NSC048: payload cut mid-stream; the loader's stream_remaining check
    // must reject it before any bulk allocation.
    write_bytes(base + "ck_truncated.nsck", valid.substr(0, valid.size() / 2));

    // NSC048: header claims an absurd core grid. Offset 9 is the first
    // geometry int32 (after magic u32, version u32, backend u8).
    std::string huge = valid;
    huge[9] = '\x00';
    huge[10] = '\x00';
    huge[11] = '\x00';
    huge[12] = '\x7f';  // chips_x = 0x7f000000
    write_bytes(base + "ck_bad_geometry.nsck", huge);

    nsc::core::Snapshot mismatch = make_snapshot(ring);
    mismatch.net_seed = ring.seed + 1;  // NSC049 vs lint_clean.nsc
    write_bytes(base + "ck_seed_mismatch.nsck", snapshot_bytes(mismatch));

    nsc::core::Snapshot bitmap = make_snapshot(ring);
    bitmap.dead_cores.assign(static_cast<std::size_t>(ring.geom.total_cores()), 0);
    bitmap.dead_cores[1] = 2;  // NSC050: non-boolean liveness byte
    write_bytes(base + "ck_bad_bitmap.nsck", snapshot_bytes(bitmap));

    nsc::core::Snapshot hot = make_snapshot(ring);
    hot.v[3] = nsc::core::kPotentialMax + 7;  // NSC051: outside 20-bit envelope
    write_bytes(base + "ck_bad_potential.nsck", snapshot_bytes(hot));

    nsc::core::Snapshot stale = make_snapshot(ring);
    stale.tick = 2;
    stale.stats.ticks = 9;  // NSC052: clock behind the counters
    write_bytes(base + "ck_stale_tick.nsck", snapshot_bytes(stale));

    nsc::core::Snapshot dead = make_snapshot(ring);
    dead.dead_cores.assign(static_cast<std::size_t>(ring.geom.total_cores()), 0);
    dead.dead_cores[2] = 1;  // NSC053: runtime fault state present
    // NSC054: a delivery buffered on the dead core — it can never drain.
    dead.delay_words[2 * kDelayWordsPerCore] = 0x1;
    write_bytes(base + "ck_dead_delay.nsck", snapshot_bytes(dead));

    std::printf("wrote lint fixtures to %s\n", dir.c_str());
  } catch (const nsc::cli::UsageError& e) {
    return nsc::cli::usage_error(e);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
