// Shared framed-message IPC primitives (docs/SERVE.md, docs/DISTRIBUTED.md).
//
// Promoted out of src/dist/transport so every local multi-process subsystem
// — the sharded backend's rank mesh, the nsc_serve session daemon, and any
// future elastic re-sharding migration path — speaks the same wire unit: one
// frame = an 8-byte (kind, size) header followed by `size` payload bytes.
//
// This directory is the only home allowed to touch raw poll/kill/waitpid
// syscalls (lint_invariants INV006), and, together with src/dist/transport*,
// raw fork/socket calls (INV005): everything above it talks in framed
// messages over an abstract Channel, so fd hygiene, EOF-based death
// detection and every liveness decision stay auditable in one place.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace nsc::ipc {

/// One framed message: kind tag + raw payload bytes. The kind namespace is
/// the endpoint pair's contract (dist ranks use dist::MsgKind, serve
/// sessions use serve::Cmd); the transport never interprets it.
struct Frame {
  std::uint32_t kind = 0;
  std::vector<std::uint8_t> payload;
};

/// Upper bound on a single frame payload: the largest legitimate frame is a
/// checkpoint blob (tens of MB for the biggest test nets); anything past
/// this is a corrupted header, rejected before allocation.
inline constexpr std::uint32_t kMaxFramePayload = 1U << 30;

// --- The frame codec of buffered endpoints (PeerPump, the serve daemon).
// Channel's blocking send_frame/recv_frame_deadline write and read the same
// header in place, so a payload goes between socket and caller uncopied.

/// Appends one frame to `out`: the 8-byte (kind, size) header, then `size`
/// payload bytes.
void append_frame(std::vector<std::uint8_t>& out, std::uint32_t kind, const void* payload,
                  std::size_t size);

/// What take_frame found at the read offset.
enum class TakeStatus {
  kIncomplete,  ///< The frame's last byte has not arrived yet.
  kFrame,       ///< A whole frame was decoded.
  kOversized,   ///< The header claims more than `max_payload` bytes: the
                ///< stream cannot be resynchronized.
};

/// Decodes the frame that starts at buf[off]. On kFrame, `out` holds it and
/// `off` points just past it; otherwise neither `off` nor `out` changes.
TakeStatus take_frame(const std::vector<std::uint8_t>& buf, std::size_t& off,
                      std::uint32_t max_payload, Frame& out);

/// Outcome of a deadline-bounded frame receive.
enum class RecvStatus {
  kOk,       ///< A full frame arrived.
  kClosed,   ///< EOF or error: the peer is gone; the channel is now dead.
  kTimeout,  ///< No bytes for `deadline_ms`: the caller must treat the
             ///< channel as wedged (it may hold a partial frame — kill it).
};

/// A bidirectional framed byte channel over one socket. Blocking send/recv
/// (used on coordinator<->rank and client<->daemon channels); poll-driven
/// endpoints switch to non-blocking and use read_some/write_some instead.
/// A closed/EOF/EPIPE channel turns dead and stays dead — death is state,
/// not an exception.
class Channel {
 public:
  Channel() = default;
  explicit Channel(int fd) : fd_(fd) {}
  ~Channel() { close(); }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  Channel(Channel&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Channel& operator=(Channel&& other) noexcept;

  /// Sends one frame; false when the peer is gone (EPIPE/reset), after which
  /// the channel is dead. Signals are never raised (MSG_NOSIGNAL).
  bool send_frame(std::uint32_t kind, const void* payload, std::size_t size);

  /// Receives one frame, the only blocking receive. It waits at most
  /// `deadline_ms` of silence for progress (the clock resets on every byte,
  /// so a slow-but-streaming peer never times out while a wedged one does);
  /// deadline_ms <= 0 waits forever, without a poll call. kClosed on EOF or
  /// a dead channel. On kTimeout the channel may hold a partial frame — the
  /// caller must not reuse it for framed I/O (kill + close it). Throws
  /// std::runtime_error when the header claims an implausible payload size.
  RecvStatus recv_frame_deadline(Frame& out, int deadline_ms);

  /// Non-blocking read of whatever bytes are available (at most one 64 KiB
  /// chunk), appended to `buf`. Returns the byte count (> 0), 0 when the
  /// read would block, or -1 on EOF/error (the channel is closed). The fd
  /// must be in non-blocking mode (set_nonblocking).
  int read_some(std::vector<std::uint8_t>& buf);

  /// Non-blocking write of up to `n` bytes. Returns bytes written (>= 0; 0
  /// when the send would block) or -1 on EPIPE/error (channel closed).
  long write_some(const void* data, std::size_t n);

  void set_nonblocking();
  void close();
  [[nodiscard]] bool alive() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// Poll-driven duplex frame exchange across a peer mesh. Each round sends
/// exactly one frame to every live peer and receives exactly one from each;
/// receive buffers persist across rounds because a fast peer's next-tick
/// frame can arrive early (the dist tick-window protocol tolerates one tick
/// of skew). Peers that reach EOF mid-round are reported dead, not fatal.
class PeerPump {
 public:
  PeerPump(std::vector<Channel>* peers, int self);

  /// `out[r]`: frame to send to live peer r (ignored for self/dead peers).
  /// On return, `in[r]` holds the received frame for every peer that was
  /// alive at entry and stayed alive; `newly_dead` lists peers whose channel
  /// hit EOF this round. With `deadline_ms > 0`, a round that makes no byte
  /// progress for that long declares every still-pending peer dead (same
  /// degrade semantics as EOF) instead of blocking forever — the clock
  /// resets on any progress, so a slow-but-streaming peer never trips it.
  void round(const std::vector<Frame>& out, std::vector<Frame>& in,
             std::vector<int>& newly_dead, int deadline_ms = 0);

 private:
  std::vector<Channel>* peers_;
  int self_;
  std::vector<std::vector<std::uint8_t>> rbuf_;  ///< Per-peer receive accumulation.
};

// --- POD wire helpers (shared by dist/protocol.hpp and serve/protocol.hpp).

/// Appends the raw bytes of a POD to a payload buffer.
template <class T>
void put_pod(std::vector<std::uint8_t>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

/// Reads a POD back, advancing `off`; throws on truncated payloads so a
/// malformed frame can never read out of bounds.
template <class T>
T get_pod(const std::vector<std::uint8_t>& buf, std::size_t& off) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (off > buf.size() || buf.size() - off < sizeof(T)) {
    throw std::runtime_error("ipc: truncated frame payload");
  }
  T v;
  std::memcpy(&v, buf.data() + off, sizeof(T));
  off += sizeof(T);
  return v;
}

/// Appends the raw bytes of `n` PODs to a payload buffer in one block.
template <class T>
void put_pod_array(std::vector<std::uint8_t>& buf, const T* v, std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (n == 0) return;
  const auto* p = reinterpret_cast<const std::uint8_t*>(v);
  buf.insert(buf.end(), p, p + n * sizeof(T));
}

/// Reads `n` PODs, appending them to `out` (bounds-checked as one block
/// before anything is copied, so a truncated payload leaves `out` as it was).
template <class T>
void get_pod_array(const std::vector<std::uint8_t>& buf, std::size_t& off, std::size_t n,
                   std::vector<T>& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (off > buf.size() || n > (buf.size() - off) / sizeof(T)) {
    throw std::runtime_error("ipc: truncated frame payload");
  }
  if (n == 0) return;
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, buf.data() + off, n * sizeof(T));
  off += n * sizeof(T);
}

}  // namespace nsc::ipc
