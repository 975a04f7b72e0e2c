// Shared-L3 reuse model, one cache per CCD.
//
// Tracks which (region, block) chunks are resident in each CCD's L3 at a
// coarse block granularity and reports the hit fraction of an access. This
// is deliberately not a cycle-accurate cache: the quantity that matters to
// the scheduler study is how much DRAM traffic is *avoided* when successive
// taskloop executions place the same iterations on the same CCD — the
// temporal-reuse benefit of ILAN's deterministic block mapping.
//
// Accesses with a footprint larger than a capacity fraction bypass the LRU
// (pure streaming evicts itself; modelling it as resident would be wrong).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "mem/data_region.hpp"
#include "topo/topology.hpp"

namespace ilan::mem {

struct CacheParams {
  std::uint64_t block_bytes = 256 * 1024;
  double streaming_bypass_fraction = 0.75;  // footprint > frac*L3 -> bypass
  double resident_hit_rate = 0.95;          // hit rate on a resident block
};

class CacheModel {
 public:
  CacheModel(const topo::Topology& topo, const CacheParams& params);

  // Probes [offset, offset+len) of `region` on `ccd`; returns the fraction
  // of bytes served from L3 and marks the touched blocks most-recently-used
  // (unless the access bypasses).
  double access(topo::CcdId ccd, RegionId region, std::uint64_t offset,
                std::uint64_t len);

  // Invalidate one CCD or all (used between independent runs).
  void invalidate(topo::CcdId ccd);
  void invalidate_all();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t probes() const { return probes_; }

 private:
  struct BlockKey {
    RegionId region;
    std::uint64_t block;
    bool operator==(const BlockKey&) const = default;
  };
  struct BlockKeyHash {
    std::size_t operator()(const BlockKey& k) const {
      // SplitMix64 finalizer: stdlib-independent (std::hash of an integer is
      // the identity on libstdc++) and well mixed across buckets.
      std::uint64_t z =
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.region)) << 40) ^
          k.block;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };
  struct CcdCache {
    std::size_t capacity_blocks = 0;
    std::list<BlockKey> lru;  // front = most recent
    std::unordered_map<BlockKey, std::list<BlockKey>::iterator, BlockKeyHash> index;
  };

  // Marks `key` most-recently-used, inserting (and evicting past capacity)
  // if absent. Returns whether the block was resident.
  bool touch_block(CcdCache& c, const BlockKey& key);

  CacheParams params_;
  std::vector<CcdCache> ccds_;
  std::uint64_t hits_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace ilan::mem
