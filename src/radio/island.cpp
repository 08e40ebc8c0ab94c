#include "radio/island.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace iiot::radio {

double max_link_range(const PropagationConfig& cfg, double margin_db) {
  // Strongest credible link budget: path loss only, minus the floor the
  // hot paths test against, plus the adjacency margin and an 8-sigma
  // shadowing allowance (beyond which we declare links nonexistent by
  // design — the plan, not chance, defines the world).
  const double floor_dbm =
      std::min(cfg.sensitivity_dbm, cfg.cca_threshold_dbm) - margin_db;
  const double budget_db = cfg.tx_power_dbm - cfg.pl0_db +
                           8.0 * cfg.shadowing_sigma_db - floor_dbm;
  if (budget_db <= 0.0) return 1.0;
  return std::max(1.0, std::pow(10.0, budget_db / (10.0 * cfg.exponent)));
}

IslandPlan plan_islands(const std::vector<Position>& pos,
                        const PropagationConfig& cfg, std::uint64_t prop_seed,
                        const IslandPlanOptions& opt) {
  IslandPlan plan;
  plan.window = opt.window == 0 ? kDefaultIslandWindow : opt.window;
  plan.id_base = opt.id_base;
  plan.island_of.assign(pos.size(), 0);
  plan.reach_offsets.assign(pos.size() + 1, 0);
  if (pos.empty()) return plan;

  const double range = max_link_range(cfg, opt.margin_db);
  const double cell = opt.cell_size > 0.0 ? opt.cell_size : range;

  double min_x = pos[0].x, min_y = pos[0].y;
  for (const Position& p : pos) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
  }

  // Row-major numbering of non-empty cells; std::map keys sort (gy, gx),
  // so island ids are a pure function of the position set.
  auto cell_of = [&](const Position& p) {
    const auto gx = static_cast<std::int64_t>(std::floor((p.x - min_x) / cell));
    const auto gy = static_cast<std::int64_t>(std::floor((p.y - min_y) / cell));
    return std::pair<std::int64_t, std::int64_t>{gy, gx};
  };
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint32_t> ids;
  for (const Position& p : pos) ids.emplace(cell_of(p), 0);
  std::uint32_t next = 0;
  for (auto& [key, id] : ids) id = next++;
  plan.count = next;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    plan.island_of[i] = ids.at(cell_of(pos[i]));
  }

  // Reach: geometry proposes (cells within `range` of each other), an
  // exact link-budget check over the node pairs disposes. The check uses
  // the same Propagation (same seed) the island mediums run with, so
  // "reaches" exactly means "has a link that clears min(sensitivity,
  // CCA) - margin there". Links are symmetric, so adjacency — the union
  // of reach — is symmetric too.
  const double floor_dbm =
      std::min(cfg.sensitivity_dbm, cfg.cca_threshold_dbm) - opt.margin_db;
  Propagation prop(cfg, prop_seed);
  std::vector<std::vector<std::size_t>> members(plan.count);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    members[plan.island_of[i]].push_back(i);
  }
  const auto cells =
      static_cast<std::int64_t>(std::ceil(range / cell)) + 1;
  // (node index, island it reaches), one entry per pair.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> links;
  std::vector<char> b_hears_a;
  for (auto ita = ids.begin(); ita != ids.end(); ++ita) {
    for (auto itb = std::next(ita); itb != ids.end(); ++itb) {
      const auto [ya, xa] = ita->first;
      const auto [yb, xb] = itb->first;
      if (std::abs(ya - yb) > cells || std::abs(xa - xb) > cells) continue;
      const std::uint32_t a = ita->second;
      const std::uint32_t b = itb->second;
      b_hears_a.assign(members[b].size(), 0);
      for (std::size_t i : members[a]) {
        bool a_hears_b = false;
        for (std::size_t jj = 0; jj < members[b].size(); ++jj) {
          const std::size_t j = members[b][jj];
          // Ids only key the shadowing draw, which is what we reproduce
          // here; id_base maps position indices onto the world's ids.
          const auto ia = static_cast<NodeId>(opt.id_base + i);
          const auto jb = static_cast<NodeId>(opt.id_base + j);
          if (prop.rx_dbm(ia, pos[i], jb, pos[j]) >= floor_dbm) {
            a_hears_b = true;
            b_hears_a[jj] = 1;
          }
        }
        if (a_hears_b) links.emplace_back(static_cast<std::uint32_t>(i), b);
      }
      for (std::size_t jj = 0; jj < members[b].size(); ++jj) {
        if (b_hears_a[jj] != 0) {
          links.emplace_back(static_cast<std::uint32_t>(members[b][jj]), a);
        }
      }
    }
  }
  std::sort(links.begin(), links.end());

  plan.reach_islands.reserve(links.size());
  plan.adjacency.assign(plan.count, {});
  for (const auto& [node, isl] : links) {
    ++plan.reach_offsets[node + 1];
    plan.reach_islands.push_back(isl);
    plan.adjacency[plan.island_of[node]].push_back(isl);
  }
  for (std::size_t i = 0; i < pos.size(); ++i) {
    plan.reach_offsets[i + 1] += plan.reach_offsets[i];
  }
  for (auto& adj : plan.adjacency) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  return plan;
}

Interchange::Interchange(std::size_t islands) {
  boxes_.reserve(islands);
  for (std::size_t i = 0; i < islands; ++i) {
    boxes_.push_back(std::make_unique<Mailbox>());
  }
}

void Interchange::post(std::size_t dst_island, CellTx tx) {
  Mailbox& box = *boxes_.at(dst_island);
  std::lock_guard<std::mutex> lk(box.mu);
  if (tx.b1 < box.earliest.load(std::memory_order_relaxed)) {
    box.earliest.store(tx.b1, std::memory_order_release);
  }
  box.msgs.push_back(std::move(tx));
  posted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<CellTx> Interchange::take_until(std::size_t island,
                                            sim::Time boundary) {
  Mailbox& box = *boxes_.at(island);
  std::vector<CellTx> out;
  {
    std::lock_guard<std::mutex> lk(box.mu);
    auto keep = box.msgs.begin();
    sim::Time earliest = sim::kTimeNever;
    for (auto it = box.msgs.begin(); it != box.msgs.end(); ++it) {
      if (it->b1 <= boundary) {
        out.push_back(std::move(*it));
      } else {
        earliest = std::min(earliest, it->b1);
        if (keep != it) *keep = std::move(*it);
        ++keep;
      }
    }
    box.msgs.erase(keep, box.msgs.end());
    box.earliest.store(earliest, std::memory_order_release);
  }
  // (b1, src_island, seq) is a total order over all posted messages, so
  // the application order is interleaving-independent.
  std::sort(out.begin(), out.end(), [](const CellTx& a, const CellTx& b) {
    if (a.b1 != b.b1) return a.b1 < b.b1;
    if (a.src_island != b.src_island) return a.src_island < b.src_island;
    return a.seq < b.seq;
  });
  return out;
}

}  // namespace iiot::radio
