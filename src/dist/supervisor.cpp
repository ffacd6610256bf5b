#include "src/dist/supervisor.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/ipc/byte_stream.hpp"

namespace nsc::dist {

using core::Tick;

namespace {

/// Backoff before respawn i: kBackoffMs << i ms, at most kBackoffCapMs.
constexpr int kBackoffMs = 5;
constexpr int kBackoffCapMs = 2000;

/// Per-segment output buffer: each tick's spikes are kept until the segment
/// is known good, then replayed to the user sink as one on_spike_batch plus
/// on_tick_end per tick, and only for ticks at or past the committed
/// watermark — a rollback replays the pre-fault prefix without
/// double-emitting it. The coordinator ends every tick it runs.
class BufferSink final : public core::SpikeSink {
 public:
  void on_spike(Tick tick, core::CoreId c, std::uint16_t neuron) override {
    spikes_.push_back({tick, c, neuron});
  }
  void on_spike_batch(const core::Spike* spikes, std::size_t n) override {
    spikes_.insert(spikes_.end(), spikes, spikes + n);
  }
  void on_tick_end(Tick tick) override { ends_.push_back({tick, spikes_.size()}); }

  void flush(core::SpikeSink& out, Tick committed) {
    std::size_t begin = 0;
    for (const TickEnd& e : ends_) {
      if (e.tick >= committed) {
        out.on_spike_batch(spikes_.data() + begin, e.end - begin);
        out.on_tick_end(e.tick);
      }
      begin = e.end;
    }
    spikes_.clear();
    ends_.clear();
  }

 private:
  struct TickEnd {
    Tick tick;
    std::size_t end;  ///< One past the tick's last spike in spikes_.
  };
  std::vector<core::Spike> spikes_;
  std::vector<TickEnd> ends_;
};

}  // namespace

Supervisor::Supervisor(const core::Network& net, Config cfg, SupervisorConfig scfg)
    : net_(net), cfg_(std::move(cfg)), scfg_(scfg) {
  if (scfg.recovery_interval < 1) {
    throw std::invalid_argument("dist: recovery_interval must be >= 1");
  }
  if (scfg.max_respawns < 0) throw std::invalid_argument("dist: max_respawns must be >= 0");
  ctr_respawned_ = &own_.counter("dist.ranks_respawned");
  ctr_recovery_ns_ = &own_.counter("dist.recovery_ns");
  ctr_rollback_ticks_ = &own_.counter("dist.rollback_ticks");
  cfg_.incarnation = incarnation_;
  coord_ = std::make_unique<Coordinator>(net_, cfg_);
  committed_ = coord_->now();
  journal_end_ = coord_->now();
}

const obs::Registry& Supervisor::metrics() const {
  merged_ = coord_->metrics();
  merged_.merge(own_);
  return merged_;
}

void Supervisor::load_checkpoint(std::istream& is) {
  coord_->load_checkpoint(is);
  image_.clear();
  image_tick_ = -1;
  journal_.clear();
  journal_end_ = coord_->now();
  committed_ = coord_->now();
}

bool Supervisor::fail_core(core::CoreId c) {
  const bool ok = coord_->fail_core(c);
  if (ok) {
    image_.clear();
    image_tick_ = -1;
  }
  return ok;
}

bool Supervisor::fail_link(int chip, int dir) {
  const bool ok = coord_->fail_link(chip, dir);
  if (ok) {
    image_.clear();
    image_tick_ = -1;
  }
  return ok;
}

bool Supervisor::fail_rank(int rank, bool hang) { return coord_->fail_rank(rank, hang); }

void Supervisor::refresh_image() {
  if (coord_->live_ranks() != cfg_.ranks) return;  // Never image a degraded fleet.
  if (image_tick_ >= 0 && coord_->now() < image_tick_ + scfg_.recovery_interval) return;
  std::ostringstream os(std::ios::binary);
  coord_->save_checkpoint(os);
  if (coord_->live_ranks() != cfg_.ranks) return;  // Death mid-collection: keep the old image.
  image_ = os.str();
  image_tick_ = coord_->now();
  // The journal only ever needs to reach back to the image tick.
  journal_.erase(std::remove_if(journal_.begin(), journal_.end(),
                                [this](const core::InputSpike& s) { return s.tick < image_tick_; }),
                 journal_.end());
}

void Supervisor::journal_inputs(const core::InputSchedule* inputs, Tick to) {
  if (inputs != nullptr) {
    for (Tick t = journal_end_; t < to; ++t) {
      for (const core::InputSpike& s : inputs->at(t)) journal_.push_back(s);
    }
  }
  journal_end_ = std::max(journal_end_, to);
}

bool Supervisor::recover(Tick planned_end) {
  if (respawns_done_ >= scfg_.max_respawns || image_tick_ < 0) {
    exhausted_ = true;
    return false;
  }
  const std::uint64_t t0 = obs::now_ns();
  // The dying incarnation's hang detections must survive it (every other
  // counter is either restored from the image or legitimately re-earned by
  // the replay).
  own_.counter("dist.heartbeats_missed") +=
      coord_->metrics().counter_value("dist.heartbeats_missed");
  const int shift = std::min(respawns_done_, 10);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(std::min(kBackoffMs << shift, kBackoffCapMs)));
  ++respawns_done_;
  ++incarnation_;
  cfg_.incarnation = incarnation_;
  coord_.reset();  // Tears down (and reaps) whatever is left of the fleet.
  coord_ = std::make_unique<Coordinator>(net_, cfg_);
  ipc::ByteIStream is(image_.data(), image_.size());
  coord_->load_checkpoint(is);
  *ctr_respawned_ += static_cast<std::uint64_t>(cfg_.ranks);
  *ctr_rollback_ticks_ += static_cast<std::uint64_t>(planned_end - image_tick_);
  *ctr_recovery_ns_ += obs::now_ns() - t0;
  return true;
}

void Supervisor::run(Tick nticks, const core::InputSchedule* inputs, core::SpikeSink* sink) {
  if (nticks <= 0) return;
  const Tick target = coord_->now() + nticks;
  while (coord_->now() < target) {
    if (exhausted_) {
      // Plain degrade path: no imaging, no buffering; a hang still surfaces
      // as RankTimeout (when a deadline is configured) rather than a wedge.
      coord_->run(target - coord_->now(), inputs, sink);
      committed_ = coord_->now();
      break;
    }
    Tick seg_end = target;
    try {
      refresh_image();
      if (image_tick_ >= 0) {
        const Tick block_end = image_tick_ + scfg_.recovery_interval;
        seg_end = std::min(target, std::max(block_end, coord_->now() + 1));
      }
      journal_inputs(inputs, seg_end);
      core::InputSchedule replay;
      for (const core::InputSpike& s : journal_) replay.add(s);
      replay.finalize();
      BufferSink buf;
      coord_->run(seg_end - coord_->now(), &replay, sink != nullptr ? &buf : nullptr);
      if (coord_->live_ranks() == cfg_.ranks) {
        if (sink != nullptr) buf.flush(*sink, committed_);
        committed_ = coord_->now();
      } else if (!recover(seg_end)) {
        // Budget spent (or no image): keep the degraded world we have.
        if (sink != nullptr) buf.flush(*sink, committed_);
        committed_ = coord_->now();
      }
    } catch (const RankTimeout&) {
      // A hang always aborts the segment mid-flight (the merge cannot be
      // resumed), so without a successful recovery it must propagate.
      if (!recover(seg_end)) throw;
    }
  }
}

}  // namespace nsc::dist
