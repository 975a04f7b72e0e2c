#include "mem/cache_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace ilan::mem {

CacheModel::CacheModel(const topo::Topology& topo, const CacheParams& params)
    : params_(params) {
  if (params_.block_bytes == 0) throw std::invalid_argument("CacheModel: zero block size");
  ccds_.resize(static_cast<std::size_t>(topo.num_ccds()));
  for (const auto& ccd : topo.ccds()) {
    ccds_[ccd.id.index()].capacity_blocks = std::max<std::size_t>(
        1, static_cast<std::size_t>(ccd.l3_bytes / static_cast<double>(params_.block_bytes)));
  }
}

bool CacheModel::touch_block(CcdCache& c, const BlockKey& key) {
  // One hash lookup: try_emplace either finds the resident block or inserts
  // the new one (its LRU position is filled in below).
  const auto [it, inserted] = c.index.try_emplace(key);
  if (!inserted) {
    c.lru.splice(c.lru.begin(), c.lru, it->second);
    return true;
  }
  c.lru.push_front(key);
  it->second = c.lru.begin();
  while (c.index.size() > c.capacity_blocks) {
    c.index.erase(c.lru.back());
    c.lru.pop_back();
  }
  return false;
}

double CacheModel::access(topo::CcdId ccd, RegionId region, std::uint64_t offset,
                          std::uint64_t len) {
  if (len == 0) return 0.0;
  CcdCache& c = ccds_.at(ccd.index());
  const std::uint64_t capacity_bytes =
      static_cast<std::uint64_t>(c.capacity_blocks) * params_.block_bytes;
  const bool bypass =
      static_cast<double>(len) >
      params_.streaming_bypass_fraction * static_cast<double>(capacity_bytes);

  const std::uint64_t first = offset / params_.block_bytes;
  const std::uint64_t last = (offset + len - 1) / params_.block_bytes;
  const auto nblocks = last - first + 1;

  std::uint64_t resident = 0;
  for (std::uint64_t b = first; b <= last; ++b) {
    const BlockKey key{region, b};
    if (bypass ? c.index.contains(key) : touch_block(c, key)) ++resident;
  }
  probes_ += nblocks;
  hits_ += resident;
  const double frac = static_cast<double>(resident) / static_cast<double>(nblocks);
  return frac * params_.resident_hit_rate;
}

void CacheModel::invalidate(topo::CcdId ccd) {
  CcdCache& c = ccds_.at(ccd.index());
  c.lru.clear();
  c.index.clear();
}

void CacheModel::invalidate_all() {
  for (std::size_t i = 0; i < ccds_.size(); ++i) {
    invalidate(topo::CcdId{static_cast<std::int32_t>(i)});
  }
  hits_ = 0;
  probes_ = 0;
}

}  // namespace ilan::mem
