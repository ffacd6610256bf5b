#include "src/ipc/endpoint.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace nsc::ipc {

namespace {

/// Fills a sockaddr_un; false when the path does not fit (sun_path is 108
/// bytes on Linux — a silent truncation would bind the wrong file).
bool make_addr(const std::string& path, sockaddr_un& addr) {
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof addr);
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

volatile std::sig_atomic_t g_stop_flag = 0;

extern "C" void stop_signal_handler(int) { g_stop_flag = 1; }

}  // namespace

Listener::Listener(const std::string& path, bool unlink_existing, int backlog) : path_(path) {
  sockaddr_un addr{};
  if (!make_addr(path, addr)) {
    throw std::runtime_error("ipc: socket path empty or too long: '" + path + "'");
  }
  if (unlink_existing) ::unlink(path.c_str());
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("ipc: socket() failed");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd_, backlog) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("ipc: cannot listen on '" + path +
                             "': " + std::strerror(err));
  }
  // Non-blocking accept: the listener joins the same poll loop as the
  // connections, and a connection that vanishes between poll and accept
  // must not wedge the daemon.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

void Listener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (!path_.empty()) ::unlink(path_.c_str());
  }
}

Channel Listener::accept_channel() {
  if (fd_ < 0) return Channel();
  for (;;) {
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd >= 0) return Channel(cfd);
    if (errno == EINTR) continue;
    return Channel();  // EAGAIN (nothing pending) or a transient error.
  }
}

Channel connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (!make_addr(path, addr)) return Channel();
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Channel();
  for (;;) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return Channel(fd);
    }
    if (errno == EINTR) continue;
    ::close(fd);
    return Channel();
  }
}

long long ms_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

int poll_wait(std::vector<PollItem>& items, int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> idx;
  pfds.reserve(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    PollItem& it = items[i];
    it.readable = it.writable = it.hangup = false;
    if (it.fd < 0 || (!it.want_read && !it.want_write)) continue;
    short ev = 0;
    if (it.want_read) ev |= POLLIN;
    if (it.want_write) ev |= POLLOUT;
    pfds.push_back({it.fd, ev, 0});
    idx.push_back(i);
  }
  const int rc = ::poll(pfds.empty() ? nullptr : pfds.data(), pfds.size(), timeout_ms);
  if (rc < 0) {
    if (errno == EINTR) return -1;
    throw std::runtime_error("ipc: poll failed");
  }
  int ready = 0;
  for (std::size_t k = 0; k < pfds.size(); ++k) {
    const short re = pfds[k].revents;
    if (re == 0) continue;
    PollItem& it = items[idx[k]];
    // POLLHUP still delivers buffered bytes; surface it as readable too so
    // the caller drains before seeing EOF.
    if ((re & (POLLIN | POLLHUP | POLLERR)) != 0) it.readable = true;
    if ((re & POLLOUT) != 0) it.writable = true;
    if ((re & (POLLHUP | POLLERR | POLLNVAL)) != 0) it.hangup = true;
    ++ready;
  }
  return ready;
}

int spawn_process(const std::vector<std::string>& argv) {
  if (argv.empty()) throw std::invalid_argument("ipc: spawn_process needs argv[0]");
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("ipc: fork failed");
  if (pid == 0) {
    ::execv(cargv[0], cargv.data());
    ::_exit(127);  // exec failed; nothing of the parent may run in the child.
  }
  return static_cast<int>(pid);
}

int reap_process(int pid) {
  if (pid <= 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return status;
}

int reap_process_deadline(int pid, int deadline_ms) {
  if (pid <= 0) return -1;
  int status = 0;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return -1;
    if (ms_since(start) >= deadline_ms) break;
    ::poll(nullptr, 0, 1);  // 1 ms nap between exit probes.
  }
  // The child is stopped or wedged: a plain waitpid would block forever, so
  // escalate to SIGKILL (which also resumes-to-kill a SIGSTOPped process)
  // and then reap unconditionally.
  ::kill(pid, SIGKILL);
  return reap_process(pid);
}

void signal_process(int pid, int signum) {
  if (pid > 0) ::kill(pid, signum);
}

void wedge_forever() {
  for (;;) ::pause();
}

void install_stop_signal(int signum) {
  struct sigaction sa{};
  sa.sa_handler = stop_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // No SA_RESTART: poll must return EINTR so loops notice.
  ::sigaction(signum, &sa, nullptr);
}

bool stop_signal_raised() noexcept { return g_stop_flag != 0; }

}  // namespace nsc::ipc
