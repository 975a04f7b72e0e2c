#include "sim/engine.hpp"

#include <stdexcept>

namespace ilan::sim {

std::uint32_t Engine::acquire_slot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t idx = free_head_;
    Slot& s = slot(idx);
    free_head_ = s.next_free;
    s.next_free = kNoFreeSlot;
    return idx;
  }
  if (num_slots_ == chunks_.size() * kChunkSlots) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return static_cast<std::uint32_t>(num_slots_++);
}

void Engine::release_slot(std::uint32_t idx) {
  Slot& s = slot(idx);
  s.fn.reset();
  // Bumping the generation invalidates every outstanding EventId for this
  // slot; 0 is skipped on wraparound so no id ever equals kInvalidEvent.
  if (++s.generation == 0) s.generation = 1;
  s.heap_pos = kNotInHeap;
  s.next_free = free_head_;
  free_head_ = idx;
}

void Engine::heap_push(const Entry& e) {
  std::size_t i = heap_.size();
  heap_.push_back(e);
  // Sift up, moving the hole instead of swapping.
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slot(heap_[i].slot).heap_pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = e;
  slot(e.slot).heap_pos = static_cast<std::uint32_t>(i);
}

void Engine::heap_pop_min() {
  slot(heap_.front().slot).heap_pos = kNotInHeap;
  // Bottom-up (Wegener) deletion: walk the hole from the root down the
  // min-child path to a leaf, then drop the last element into the hole and
  // sift it up. In event-driven workloads the last element is one of the
  // most recently scheduled (and so among the latest) timestamps, so the
  // sift-up almost never moves — this saves the compare-against-moved-key
  // at every level that the textbook sift-down pays.
  const std::size_t n = heap_.size() - 1;  // index of the last element
  if (n == 0) {
    heap_.pop_back();
    return;
  }
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    slot(heap_[hole].slot).heap_pos = static_cast<std::uint32_t>(hole);
    hole = best;
  }
  if (hole != n) {
    const Entry e = heap_[n];
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / kArity;
      if (!before(e, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      slot(heap_[hole].slot).heap_pos = static_cast<std::uint32_t>(hole);
      hole = parent;
    }
    heap_[hole] = e;
    slot(e.slot).heap_pos = static_cast<std::uint32_t>(hole);
  }
  heap_.pop_back();
}

void Engine::heap_sift(std::size_t pos, const Entry& e) {
  // Try up first; if the entry belongs at or below its parent, sift down.
  std::size_t i = pos;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    slot(heap_[i].slot).heap_pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  if (i == pos) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = i * kArity + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], e)) break;
      heap_[i] = heap_[best];
      slot(heap_[i].slot).heap_pos = static_cast<std::uint32_t>(i);
      i = best;
    }
  }
  heap_[i] = e;
  slot(e.slot).heap_pos = static_cast<std::uint32_t>(i);
}

void Engine::heap_remove(std::size_t pos) {
  slot(heap_[pos].slot).heap_pos = kNotInHeap;
  const std::size_t n = heap_.size() - 1;
  if (pos == n) {
    heap_.pop_back();
    return;
  }
  const Entry e = heap_[n];
  heap_.pop_back();
  heap_sift(pos, e);
}

EventId Engine::schedule_at(SimTime at, Callback fn, EventTag tag, bool daemon) {
  check_schedule(at);
  if (!fn) throw std::invalid_argument("Engine: null callback");
  return push_event(at, next_seq_++, std::move(fn), tag, daemon);
}

EventId Engine::reschedule(EventId id, SimTime at) {
  const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= num_slots_ || slot(idx).generation != gen) return kInvalidEvent;
  check_schedule(at);
  Slot& s = slot(idx);
  // Bump the generation (the old id dies, exactly as cancel + schedule_at
  // would arrange) and move the pending entry in place. The sequence
  // number is consumed either way, so the FIFO tie-break — and the
  // committed event stream — is identical to cancel + schedule_at.
  if (++s.generation == 0) s.generation = 1;
  const std::size_t pos = s.heap_pos;
  Entry e = heap_[pos];
  e.at = at;
  e.seq = next_seq_++;
  e.generation = s.generation;
  heap_sift(pos, e);
  return (static_cast<EventId>(s.generation) << 32) | idx;
}

bool Engine::cancel(EventId id) {
  const auto idx = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (idx >= num_slots_ || slot(idx).generation != gen) return false;
  if (!slot(idx).daemon) --live_regular_;
  heap_remove(slot(idx).heap_pos);
  release_slot(idx);
  --live_;
  return true;
}

std::size_t Engine::run() { return run_until(INT64_MAX); }

std::size_t Engine::run_until(SimTime limit) {
  std::size_t n = 0;
  while (!heap_.empty()) {
    // Only daemon events left: stop without firing them — perturbations
    // must never advance time past the real workload.
    if (live_regular_ == 0) break;
    const Entry top = heap_.front();
    Slot& s = slot(top.slot);
    if (top.at > limit) break;
    heap_pop_min();
    // Two-phase release: invalidate the id now (a self-cancel from inside
    // the callback must miss, and any new event in a reused slot must get
    // a fresh generation), but keep the slot off the free list until the
    // callback has finished running in place.
    if (++s.generation == 0) s.generation = 1;
    --live_;
    if (!s.daemon) --live_regular_;
    now_ = top.at;
    commit_event(top.at, fired_, s.tag);
    tied_seq_ = top.seq;
    s.fn();
    tied_seq_ = 0;
    s.fn.reset();
    s.next_free = free_head_;
    free_head_ = top.slot;
    ++n;
    ++fired_;
  }
  return n;
}

void Engine::reset() {
  // Release live slots (bumping generations, so stale pre-reset ids can
  // never match post-reset events); every heap entry is live, and each
  // live slot has exactly one entry.
  for (const Entry& e : heap_) {
    release_slot(e.slot);
  }
  heap_.clear();
  now_ = 0;
  live_ = 0;
  live_regular_ = 0;
  fired_ = 0;
  next_seq_ = 1;
  tied_seq_ = 0;
  digest_ = 0;
  trace_.clear();
  trace_truncated_ = false;
}

}  // namespace ilan::sim
