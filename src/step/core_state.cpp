#include "src/step/core_state.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace nsc::step {

using core::CoreId;
using core::kCoreSize;
using core::NeuronParams;

Instance::Instance(const CoreState& st)
    : v(static_cast<std::size_t>(st.ncores) * kCoreSize),
      delay(static_cast<std::size_t>(st.ncores) * kDelaySlots),
      profile(static_cast<std::size_t>(st.ncores)),
      fast(static_cast<std::size_t>(st.ncores), 0) {
  for (CoreId c = 0; c < st.ncores; ++c) {
    for (int j = 0; j < kCoreSize; ++j) {
      v[static_cast<std::size_t>(c) * kCoreSize + static_cast<std::size_t>(j)] =
          st.net.core(c).neuron[j].init_v;
    }
  }
}

noc::FaultSet static_faults(const core::Network& net) {
  noc::FaultSet faults(net.geom.total_cores());
  for (CoreId c = 0; c < static_cast<CoreId>(net.geom.total_cores()); ++c) {
    if (net.core(c).disabled) faults.mark(c);
  }
  return faults;
}

void check_snapshot(const core::Network& net, const core::Snapshot& snap) {
  if (snap.geom != net.geom) {
    throw std::runtime_error("checkpoint geometry does not match this simulator's network");
  }
  if (snap.net_seed != net.seed) {
    throw std::runtime_error("checkpoint was taken against a different network (seed mismatch)");
  }
  const auto n = static_cast<std::size_t>(net.geom.total_cores());
  if (snap.v.size() != n * kCoreSize ||
      snap.delay_words.size() != n * kDelaySlots * util::BitRow256::kWords) {
    throw std::runtime_error("checkpoint state size does not match the network");
  }
}

CoreState::CoreState(const core::Network& net)
    : net(net),
      ncores(static_cast<CoreId>(net.geom.total_cores())),
      kern(&kernels::select_kernels()),
      prng(net.seed),
      faults(static_faults(net)),
      link_faults(net.geom.chips()),
      enabled(static_cast<std::size_t>(ncores)),
      enabled_count(static_cast<std::size_t>(ncores), 0),
      always_active(static_cast<std::size_t>(ncores), 0),
      target_ok(static_cast<std::size_t>(ncores) * kCoreSize, 0),
      target_faulted(static_cast<std::size_t>(ncores) * kCoreSize, 0),
      hot_(intern_hot_blocks(net)),
      rowpop_(static_cast<std::size_t>(ncores) * kCoreSize, 0),
      targets_(static_cast<std::size_t>(ncores) * kCoreSize) {
  derive_enabled();
  derive_targets();
  for (CoreId c = 0; c < ncores; ++c) {
    if (hot_block(c) == nullptr) continue;
    const core::CoreSpec& spec = net.core(c);
    for (int i = 0; i < kCoreSize; ++i) {
      const std::size_t k = static_cast<std::size_t>(c) * kCoreSize + static_cast<std::size_t>(i);
      rowpop_[k] = static_cast<std::uint16_t>(spec.crossbar.row(i).count());
      targets_[k] = spec.neuron[i].target;
    }
  }
}

namespace {

/// FNV-1a over the block's 64-bit words, finished with a full-avalanche mix:
/// one pass, no allocation.
std::uint64_t block_hash(const core::HotBlock& b) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&b);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < sizeof b; i += sizeof(std::uint64_t)) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + i, sizeof w);
    h = (h ^ w) * 0x100000001B3ULL;
  }
  return util::mix64(h);
}

}  // namespace

HotTables intern_hot_blocks(const core::Network& net) {
  const auto ncores = static_cast<std::size_t>(net.geom.total_cores());
  HotTables t;
  t.block_of.assign(ncores, HotTables::kNone);
  std::unordered_multimap<std::uint64_t, std::uint32_t> by_hash;
  core::HotBlock b;
  for (std::size_t c = 0; c < ncores; ++c) {
    const core::CoreSpec& spec = net.cores[c];
    if (spec.disabled) continue;
    int enabled = 0;
    for (const NeuronParams& p : spec.neuron) enabled += p.enabled != 0 ? 1 : 0;
    if (!core::core_hot_eligible(spec, enabled)) continue;
    core::fill_hot_block(spec, b);
    const std::uint64_t h = block_hash(b);
    const auto [lo, hi] = by_hash.equal_range(h);
    const auto same = std::find_if(lo, hi, [&](const auto& e) {
      return std::memcmp(&t.blocks[e.second], &b, sizeof b) == 0;
    });
    if (same != hi) {
      t.block_of[c] = same->second;
      continue;
    }
    t.block_of[c] = static_cast<std::uint32_t>(t.blocks.size());
    by_hash.emplace(h, t.block_of[c]);
    t.blocks.push_back(b);
  }
  return t;
}

void CoreState::derive_enabled() {
  for (CoreId c = 0; c < ncores; ++c) {
    enabled[c] = util::BitRow256{};
    enabled_count[c] = 0;
    always_active[c] = 0;
    if (faults.is_faulted(c)) continue;
    const core::CoreSpec& spec = net.core(c);
    for (int j = 0; j < kCoreSize; ++j) {
      if (!spec.neuron[j].enabled) continue;
      enabled[c].set(j);
      ++enabled_count[c];
    }
    always_active[c] = core::core_always_active(spec, enabled[c]) ? 1 : 0;
  }
}

void CoreState::derive_targets() {
  std::fill(target_ok.begin(), target_ok.end(), 0);
  std::fill(target_faulted.begin(), target_faulted.end(), 0);
  for (CoreId c = 0; c < ncores; ++c) {
    if (faults.is_faulted(c)) continue;
    const core::CoreSpec& spec = net.core(c);
    enabled[c].for_each_set([&](int j) {
      const NeuronParams& p = spec.neuron[j];
      if (!p.target.valid() || p.target.core >= ncores) return;
      // Aimed at a statically disabled core: dropped since construction and
      // not fault-counted.
      if (net.core(p.target.core).disabled) return;
      const std::size_t nid = static_cast<std::size_t>(c) * kCoreSize + static_cast<std::size_t>(j);
      if (faults.is_faulted(p.target.core) ||
          (runtime_faults &&
           !noc::route_with_faults(net.geom, faults, link_faults, c, p.target.core).reachable)) {
        target_faulted[nid] = 1;  // Killed or disconnected mid-run.
        return;
      }
      target_ok[nid] = 1;
    });
  }
}

Live CoreState::live(CoreId begin, CoreId end) const {
  Live out;
  for (CoreId c = begin; c < end; ++c) {
    if (faults.is_faulted(c)) continue;
    ++out.cores;
    out.enabled += enabled_count[c];
  }
  return out;
}

void CoreState::seed(Instance& inst, core::ActiveSet& active, CoreId begin, CoreId end) const {
  active = core::ActiveSet(begin, end, kDelaySlots);
  for (CoreId c = begin; c < end; ++c) {
    // Density profiles restart at the hybrid default: perf-only derived
    // state, so a restored run re-learns its strategies without perturbing
    // output.
    inst.profile[c] = kernels::CoreProfile{};
    inst.fast[c] = 0;
    util::BitRow256* rows = &inst.slot(c, 0);
    if (faults.is_faulted(c)) {
      for (int s = 0; s < kDelaySlots; ++s) rows[s].reset();
      continue;
    }
    const core::CoreSpec& spec = net.core(c);
    const std::int32_t* vrow = &inst.v[static_cast<std::size_t>(c) * kCoreSize];
    // A hand-edited snapshot with wild potentials demotes the core to the
    // exact generic loop, for this instance only.
    inst.fast[c] = hot_block(c) != nullptr && core::hot_potentials_safe(vrow) ? 1 : 0;
    if (always_active[c] != 0 || core::core_restless_at(spec, enabled[c], vrow)) {
      active.set_restless(c, true);
    }
    for (int s = 0; s < kDelaySlots; ++s) {
      if (rows[s].any()) active.mark_event(c, s);
    }
  }
}

void CoreState::save(const Instance& inst, core::Snapshot& snap) const {
  snap.geom = net.geom;
  snap.net_seed = net.seed;
  snap.dead_cores = faults.bitmap();
  snap.dead_links = link_faults.bitmap();
  snap.v = inst.v;
  snap.delay_words.reserve(inst.delay.size() * util::BitRow256::kWords);
  for (const util::BitRow256& row : inst.delay) {
    for (int w = 0; w < util::BitRow256::kWords; ++w) snap.delay_words.push_back(row.word(w));
  }
}

void CoreState::restore(const core::Snapshot& snap, Instance& inst) {
  check_snapshot(net, snap);
  inst.v = snap.v;
  for (std::size_t i = 0; i < inst.delay.size(); ++i) {
    for (int w = 0; w < util::BitRow256::kWords; ++w) {
      inst.delay[i].set_word(
          w, snap.delay_words[i * util::BitRow256::kWords + static_cast<std::size_t>(w)]);
    }
  }
  noc::FaultSet dead = static_faults(net);
  const int static_dead = dead.count();
  dead.mark_all(snap.dead_cores);
  noc::LinkFaultSet dead_links(net.geom.chips());
  dead_links.mark_all(snap.dead_links);
  // The derived tables are a function of the network and the fault sets on
  // every entry the step reads, so a snapshot with the current fault sets
  // needs nothing re-derived. One set of entries differs: a core failed
  // mid-run keeps its own target_ok rows, which a rebuild zeroes; no dead
  // core is ever visited, so the step never reads them.
  if (dead.bitmap() == faults.bitmap() && dead_links.bitmap() == link_faults.bitmap()) return;
  faults = std::move(dead);
  link_faults = std::move(dead_links);
  runtime_faults = faults.count() > static_dead || !link_faults.empty();
  derive_enabled();
  derive_targets();
}

}  // namespace nsc::step
