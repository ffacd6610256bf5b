#include "src/ipc/channel.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "src/ipc/endpoint.hpp"

namespace nsc::ipc {

namespace {

/// The frame header as it travels on the wire.
struct FrameHeader {
  std::uint32_t kind = 0;
  std::uint32_t size = 0;
};
static_assert(sizeof(FrameHeader) == 8);

bool send_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;  // EPIPE/ECONNRESET: peer is gone.
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// Reads exactly `n` bytes. With deadline_ms > 0 every wait is a poll
/// bounded by the silence window, which resets on every byte, so only
/// `deadline_ms` of *no progress* times out, not a slow transfer; otherwise
/// recv blocks until the bytes arrive.
RecvStatus recv_exact(int fd, void* data, std::size_t n, int deadline_ms) {
  auto* p = static_cast<std::uint8_t*>(data);
  auto last_progress = std::chrono::steady_clock::now();
  while (n > 0) {
    if (deadline_ms > 0) {
      const long long remaining = deadline_ms - ms_since(last_progress);
      if (remaining <= 0) return RecvStatus::kTimeout;
      pollfd pfd{fd, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (rc < 0) {
        if (errno == EINTR) continue;
        return RecvStatus::kClosed;
      }
      if (rc == 0) return RecvStatus::kTimeout;
    }
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return RecvStatus::kClosed;
    }
    if (r == 0) return RecvStatus::kClosed;  // EOF: peer closed.
    p += r;
    n -= static_cast<std::size_t>(r);
    last_progress = std::chrono::steady_clock::now();
  }
  return RecvStatus::kOk;
}

}  // namespace

void append_frame(std::vector<std::uint8_t>& out, std::uint32_t kind, const void* payload,
                  std::size_t size) {
  const FrameHeader h{kind, static_cast<std::uint32_t>(size)};
  const std::size_t at = out.size();
  out.resize(at + sizeof h + size);
  std::memcpy(out.data() + at, &h, sizeof h);
  if (size > 0) std::memcpy(out.data() + at + sizeof h, payload, size);
}

TakeStatus take_frame(const std::vector<std::uint8_t>& buf, std::size_t& off,
                      std::uint32_t max_payload, Frame& out) {
  if (off > buf.size() || buf.size() - off < sizeof(FrameHeader)) return TakeStatus::kIncomplete;
  FrameHeader h;
  std::memcpy(&h, buf.data() + off, sizeof h);
  if (h.size > max_payload) return TakeStatus::kOversized;
  if (buf.size() - off - sizeof h < h.size) return TakeStatus::kIncomplete;
  const auto* p = buf.data() + off + sizeof h;
  out.kind = h.kind;
  out.payload.assign(p, p + h.size);
  off += sizeof h + h.size;
  return TakeStatus::kFrame;
}

Channel& Channel::operator=(Channel&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Channel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Channel::set_nonblocking() {
  if (fd_ < 0) return;
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

bool Channel::send_frame(std::uint32_t kind, const void* payload, std::size_t size) {
  if (fd_ < 0) return false;
  // Header, then payload, sent from where they lie: a checkpoint blob or a
  // dense tick's spikes are not copied into a frame buffer first.
  const FrameHeader h{kind, static_cast<std::uint32_t>(size)};
  if (!send_all(fd_, &h, sizeof h) || (size > 0 && !send_all(fd_, payload, size))) {
    close();
    return false;
  }
  return true;
}

RecvStatus Channel::recv_frame_deadline(Frame& out, int deadline_ms) {
  if (fd_ < 0) return RecvStatus::kClosed;
  // Header, then payload, each read exactly where it belongs: the payload
  // lands in `out` with no copy, and nothing past the frame is consumed.
  FrameHeader h;
  RecvStatus st = recv_exact(fd_, &h, sizeof h, deadline_ms);
  if (st == RecvStatus::kOk && h.size > kMaxFramePayload) {
    close();
    throw std::runtime_error("ipc: frame header claims an implausible payload size");
  }
  if (st == RecvStatus::kOk) {
    out.kind = h.kind;
    out.payload.resize(h.size);
    st = recv_exact(fd_, out.payload.data(), h.size, deadline_ms);
  }
  // kTimeout leaves the fd open on purpose: the caller owns the decision
  // (kill + on_rank_death closes it); kClosed means the peer is gone.
  if (st == RecvStatus::kClosed) close();
  return st;
}

int Channel::read_some(std::vector<std::uint8_t>& buf) {
  if (fd_ < 0) return -1;
  std::uint8_t chunk[65536];
  for (;;) {
    const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
    if (r > 0) {
      buf.insert(buf.end(), chunk, chunk + r);
      return static_cast<int>(r);
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    }
    close();  // EOF or hard error.
    return -1;
  }
}

long Channel::write_some(const void* data, std::size_t n) {
  if (fd_ < 0) return -1;
  for (;;) {
    const ssize_t w = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (w >= 0) return w;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    close();
    return -1;
  }
}

PeerPump::PeerPump(std::vector<Channel>* peers, int self) : peers_(peers), self_(self) {
  rbuf_.resize(peers->size());
  for (std::size_t i = 0; i < peers->size(); ++i) {
    if (static_cast<int>(i) != self_) (*peers_)[i].set_nonblocking();
  }
}

void PeerPump::round(const std::vector<Frame>& out, std::vector<Frame>& in,
                     std::vector<int>& newly_dead, int deadline_ms) {
  const std::size_t n = peers_->size();
  in.assign(n, Frame{});
  newly_dead.clear();

  // Takes peer i's next frame out of its receive buffer, if it is whole.
  const auto take = [&](std::size_t i) {
    std::size_t off = 0;
    const TakeStatus st = take_frame(rbuf_[i], off, kMaxFramePayload, in[i]);
    if (st == TakeStatus::kOversized) {
      throw std::runtime_error("ipc: peer frame header claims an implausible payload size");
    }
    rbuf_[i].erase(rbuf_[i].begin(), rbuf_[i].begin() + static_cast<std::ptrdiff_t>(off));
    return st == TakeStatus::kFrame;
  };

  // Encoded outgoing frames and progress cursors.
  std::vector<std::vector<std::uint8_t>> sbuf(n);
  std::vector<std::size_t> sent(n, 0);
  std::vector<std::uint8_t> got(n, 0);
  std::vector<std::uint8_t> want(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<int>(i) == self_ || !(*peers_)[i].alive()) continue;
    want[i] = 1;
    append_frame(sbuf[i], out[i].kind, out[i].payload.data(), out[i].payload.size());
    // A fast peer's frame may already be buffered from a previous round.
    if (take(i)) got[i] = 1;
  }

  const auto mark_dead = [&](std::size_t i) {
    (*peers_)[i].close();
    want[i] = 0;
    sent[i] = sbuf[i].size();
    newly_dead.push_back(static_cast<int>(i));
  };

  std::vector<PollItem> items;
  std::vector<std::size_t> idx;
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    items.clear();
    idx.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (want[i] == 0) continue;
      PollItem it;
      it.fd = (*peers_)[i].fd();
      it.want_read = got[i] == 0;
      it.want_write = sent[i] < sbuf[i].size();
      if (!it.want_read && !it.want_write) continue;
      items.push_back(it);
      idx.push_back(i);
    }
    if (items.empty()) break;
    int timeout = -1;
    if (deadline_ms > 0) {
      const long long remaining = deadline_ms - ms_since(last_progress);
      if (remaining <= 0) {
        // No byte moved in `deadline_ms`: every still-pending peer is
        // declared dead (degrade semantics, same as EOF) so this rank can
        // never wedge behind a hung one. A live coordinator will kill the
        // actual culprit; the collateral closes just desynchronize us from
        // a world that is being torn down or rolled back anyway.
        for (const std::size_t i : idx) mark_dead(i);
        continue;  // Pending set is now empty -> loop exits via break.
      }
      timeout = static_cast<int>(remaining);
    }
    if (poll_wait(items, timeout) <= 0) continue;  // EINTR or timeout: re-check the clock.
    for (std::size_t k = 0; k < items.size(); ++k) {
      const std::size_t i = idx[k];
      Channel& ch = (*peers_)[i];
      if (items[k].readable && got[i] == 0) {
        const int r = ch.read_some(rbuf_[i]);
        if (r < 0) {
          mark_dead(i);
          continue;
        }
        if (r > 0) {
          if (take(i)) got[i] = 1;
          last_progress = std::chrono::steady_clock::now();
        }
      }
      if (items[k].writable && sent[i] < sbuf[i].size()) {
        const long w = ch.write_some(sbuf[i].data() + sent[i], sbuf[i].size() - sent[i]);
        if (w < 0) {
          mark_dead(i);
        } else if (w > 0) {
          sent[i] += static_cast<std::size_t>(w);
          last_progress = std::chrono::steady_clock::now();
        }
      }
    }
  }
}

}  // namespace nsc::ipc
