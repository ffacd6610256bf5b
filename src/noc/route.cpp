#include "src/noc/route.hpp"

#include <algorithm>
#include <cstdlib>
#include <queue>

namespace nsc::noc {

using core::CoreId;
using core::Geometry;

int manhattan(const Geometry& g, CoreId a, CoreId b) {
  const auto pa = g.global_xy(a);
  const auto pb = g.global_xy(b);
  return std::abs(pa.x - pb.x) + std::abs(pa.y - pb.y);
}

namespace {

/// Chip boundaries crossed moving along one axis from global coordinate a to
/// b, where each chip spans `span` cores on that axis.
int crossings_1d(int a, int b, int span) {
  return std::abs(a / span - b / span);
}

}  // namespace

RouteInfo route_dor(const Geometry& g, CoreId src, CoreId dst) {
  RouteInfo r;
  if (src == dst) return r;
  const auto ps = g.global_xy(src);
  const auto pd = g.global_xy(dst);
  r.hops = std::abs(pd.x - ps.x) + std::abs(pd.y - ps.y);
  // X leg at row ps.y, then Y leg at column pd.x.
  r.chip_crossings =
      crossings_1d(ps.x, pd.x, g.cores_x) + crossings_1d(ps.y, pd.y, g.cores_y);
  return r;
}

bool dor_path_blocked(const Geometry& g, const FaultSet& faults, CoreId src, CoreId dst) {
  if (faults.empty() || src == dst) return false;
  const auto ps = g.global_xy(src);
  const auto pd = g.global_xy(dst);
  // X leg along row ps.y. The turn core (pd.x, ps.y) is an intermediate hop
  // and is checked unless it is the destination itself.
  if (ps.x != pd.x) {
    const int sx = ps.x < pd.x ? 1 : -1;
    for (int x = ps.x + sx;; x += sx) {
      if (x == pd.x && ps.y == pd.y) break;  // destination, excluded
      if (faults.is_faulted(g.core_at_global(x, ps.y))) return true;
      if (x == pd.x) break;
    }
  }
  // Y leg along column pd.x, destination excluded.
  if (ps.y != pd.y) {
    const int sy = ps.y < pd.y ? 1 : -1;
    for (int y = ps.y + sy; y != pd.y; y += sy) {
      if (faults.is_faulted(g.core_at_global(pd.x, y))) return true;
    }
  }
  return false;
}

bool dor_links_blocked(const Geometry& g, const LinkFaultSet& links, CoreId src, CoreId dst) {
  if (links.empty() || src == dst || g.chips() <= 1) return false;
  return for_each_dor_link(g, src, dst, [&](int chip, LinkDir dir) {
    return links.blocked(chip, static_cast<int>(dir));
  });
}

RouteInfo route_with_faults(const Geometry& g, const FaultSet& faults, const LinkFaultSet& links,
                            CoreId src, CoreId dst, std::vector<ChipLink>* detour) {
  if (detour != nullptr) detour->clear();
  if (!dor_path_blocked(g, faults, src, dst) && !dor_links_blocked(g, links, src, dst)) {
    return route_dor(g, src, dst);
  }

  // BFS shortest detour over healthy cores and live links, remembering the
  // move that first reached each cell: the path walked back from dst is the
  // discovered shortest path (among equal-hop paths, the first found in
  // fixed E/W/S/N neighbor order).
  const int w = g.chips_x * g.cores_x;
  const int h = g.chips_y * g.cores_y;
  const auto ps = g.global_xy(src);
  const auto pd = g.global_xy(dst);
  std::vector<std::int32_t> dist(static_cast<std::size_t>(w) * static_cast<std::size_t>(h), -1);
  std::vector<std::int8_t> move(dist.size(), -1);
  auto idx = [w](int x, int y) {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(w) + static_cast<std::size_t>(x);
  };
  constexpr int dx[4] = {1, -1, 0, 0};
  constexpr int dy[4] = {0, 0, 1, -1};
  // Link direction of each move when it crosses a chip boundary.
  constexpr LinkDir dir[4] = {LinkDir::kEast, LinkDir::kWest, LinkDir::kSouth, LinkDir::kNorth};
  // The chip a move out of (x, y) leaves, or -1 when it stays on the chip.
  auto leaves = [&g](int x, int y, int nx, int ny) {
    const bool boundary = (x / g.cores_x != nx / g.cores_x) || (y / g.cores_y != ny / g.cores_y);
    return boundary ? (y / g.cores_y) * g.chips_x + (x / g.cores_x) : -1;
  };
  std::queue<std::pair<int, int>> q;
  dist[idx(ps.x, ps.y)] = 0;
  q.push({ps.x, ps.y});
  while (!q.empty()) {
    const auto [x, y] = q.front();
    q.pop();
    if (x == pd.x && y == pd.y) break;
    const int d = dist[idx(x, y)];
    for (int k = 0; k < 4; ++k) {
      const int nx = x + dx[k], ny = y + dy[k];
      if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
      if (dist[idx(nx, ny)] != -1) continue;
      const int chip = leaves(x, y, nx, ny);
      if (chip >= 0 && links.blocked(chip, static_cast<int>(dir[k]))) continue;
      const CoreId cid = g.core_at_global(nx, ny);
      if (faults.is_faulted(cid) && !(nx == pd.x && ny == pd.y)) continue;
      dist[idx(nx, ny)] = d + 1;
      move[idx(nx, ny)] = static_cast<std::int8_t>(k);
      q.push({nx, ny});
    }
  }
  RouteInfo r;
  const std::int32_t d = dist[idx(pd.x, pd.y)];
  if (d < 0) {
    r.reachable = false;
    return r;
  }
  r.hops = d;
  std::vector<ChipLink> crossed;
  for (int x = pd.x, y = pd.y; x != ps.x || y != ps.y;) {
    const int k = move[idx(x, y)];
    const int px = x - dx[k], py = y - dy[k];
    const int chip = leaves(px, py, x, y);
    if (chip >= 0) crossed.push_back({chip, dir[k]});
    x = px;
    y = py;
  }
  r.chip_crossings = static_cast<int>(crossed.size());
  if (detour != nullptr) detour->assign(crossed.rbegin(), crossed.rend());
  return r;
}

}  // namespace nsc::noc
