#include "src/dist/transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <stdexcept>

namespace nsc::dist {

Spawned spawn_ranks(int nranks) {
  if (nranks < 1) throw std::invalid_argument("dist: nranks must be >= 1");
  const auto n = static_cast<std::size_t>(nranks);

  // Create the whole mesh up front so every child inherits every fd and can
  // close exactly the ones it does not own — a stray copy of a channel end
  // in a sibling would defeat EOF-based death detection.
  std::vector<std::array<int, 2>> parent_pair(n);  // [0] = coordinator end, [1] = rank end.
  for (auto& pr : parent_pair) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pr.data()) != 0) {
      throw std::runtime_error("dist: socketpair failed");
    }
  }
  // peer_pair[i][j] for j > i: [0] is rank i's end, [1] is rank j's end.
  std::vector<std::vector<std::array<int, 2>>> peer_pair(n);
  for (std::size_t i = 0; i < n; ++i) {
    peer_pair[i].assign(n, {-1, -1});
    for (std::size_t j = i + 1; j < n; ++j) {
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, peer_pair[i][j].data()) != 0) {
        throw std::runtime_error("dist: socketpair failed");
      }
    }
  }

  std::vector<int> pids;
  pids.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("dist: fork failed");
    if (pid == 0) {
      Spawned s;
      s.rank = static_cast<int>(r);
      s.peers.resize(n);
      for (std::size_t x = 0; x < n; ++x) {
        ::close(parent_pair[x][0]);
        if (x == r) {
          s.to_parent = ipc::Channel(parent_pair[x][1]);
        } else {
          ::close(parent_pair[x][1]);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (i == r) {
            s.peers[j] = ipc::Channel(peer_pair[i][j][0]);
            ::close(peer_pair[i][j][1]);
          } else if (j == r) {
            s.peers[i] = ipc::Channel(peer_pair[i][j][1]);
            ::close(peer_pair[i][j][0]);
          } else {
            ::close(peer_pair[i][j][0]);
            ::close(peer_pair[i][j][1]);
          }
        }
      }
      return s;
    }
    pids.push_back(static_cast<int>(pid));
  }

  Spawned s;
  s.pids = std::move(pids);
  s.to_rank.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    s.to_rank.emplace_back(parent_pair[r][0]);
    ::close(parent_pair[r][1]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      ::close(peer_pair[i][j][0]);
      ::close(peer_pair[i][j][1]);
    }
  }
  return s;
}

}  // namespace nsc::dist
