// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (FIFO tie-break by a monotonic sequence number). Events
// can be cancelled or rescheduled; both operate on the pending entry in
// place (each slot knows its heap position), so the heap only ever holds
// live events.
//
// Hot-path design (this is the innermost loop of every simulated run):
//   * Callbacks live in a slot pool (free list) instead of a hash map; an
//     EventId is (generation << 32) | slot, so cancel() is an array index
//     plus a generation compare, and stale handles from fired/cancelled
//     events can never alias a reused slot.
//   * Callback storage is small-buffer-optimized (`InlineCallback`): any
//     capture list up to kInlineBytes is stored in place, so the common
//     schedule/fire cycle performs zero heap allocations once the pool and
//     heap have reached their high-water marks.
//   * Slots live in fixed-size chunks at stable addresses, so firing
//     invokes the callback in place — no move out of the pool. The slot's
//     generation is bumped before the callback runs (stale ids, including
//     self-cancel, miss) but it only joins the free list afterwards, so a
//     callback scheduling new events can never overwrite the very functor
//     that is executing.
//   * The pending queue is an index-based d-ary (d=4) min-heap: shallower
//     than a binary heap and cache-friendlier than std::priority_queue's
//     pair-of-comparisons on a node type, with sift loops that move the
//     hole instead of swapping.
//   * The heap is *indexed*: every slot records where its entry sits, so
//     cancel() and reschedule() edit the entry in place (one short sift)
//     instead of pushing a replacement and lazily skipping the stale one
//     on pop. A min-heap pops the same live (time, seq) order no matter
//     how removals happen, so this is invisible to the committed stream.
//   * Long-lived events move instead of multiplying. The memory system
//     keeps ONE completion event armed at its earliest finishing
//     execution and moves it with one reschedule() per bandwidth re-solve
//     (see mem/memory_system.hpp). When several executions finish at the
//     same instant, the firing callback re-arms the event with
//     schedule_tied(), which reuses the firing event's sequence number
//     (why that preserves the committed stream is argued there).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace ilan::sim {

// Move-only type-erased `void()` callable with inline storage for small
// captures. Larger callables fall back to a single heap allocation.
//
// The common case — a lambda capturing pointers and integers — is
// trivially copyable, so it moves as a plain memcpy of the buffer with no
// manager dispatch and destructs for free (mgr_ == nullptr). Non-trivial
// or heap-stored callables carry a manager table for relocate/destroy.
class InlineCallback {
 public:
  // Large enough for the runtime's biggest capture list
  // ([this, worker id, rt::Task]) with room to spare.
  static constexpr std::size_t kInlineBytes = 64;

  InlineCallback() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  // Destroys the current callable (if any) and constructs `f` in place —
  // the zero-move path used by Engine::schedule_at's template overload.
  template <typename F>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  InlineCallback(InlineCallback&& o) noexcept { steal(o); }

  InlineCallback& operator=(InlineCallback&& o) noexcept {
    if (this != &o) {
      reset();
      steal(o);
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  void reset() noexcept {
    if (mgr_ != nullptr) mgr_->destroy(buf_);
    invoke_ = nullptr;
    mgr_ = nullptr;
  }

  [[nodiscard]] explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() { invoke_(buf_); }

 private:
  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>() && std::is_trivially_copyable_v<D> &&
                  std::is_trivially_destructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
    } else if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &invoke_inline<D>;
      mgr_ = &mgr_inline<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      invoke_ = &invoke_heap<D>;
      mgr_ = &mgr_heap<D>;
    }
  }

  struct Manager {
    // Move-constructs into dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* as(void* p) {
    return std::launder(reinterpret_cast<D*>(p));
  }

  template <typename D>
  static D* heap_ptr(void* p) {
    return *std::launder(reinterpret_cast<D**>(p));
  }

  template <typename D>
  static void invoke_inline(void* p) {
    (*as<D>(p))();
  }

  template <typename D>
  static void invoke_heap(void* p) {
    (*heap_ptr<D>(p))();
  }

  template <typename D>
  static constexpr Manager mgr_inline{
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*as<D>(src)));
        as<D>(src)->~D();
      },
      [](void* p) { as<D>(p)->~D(); },
  };

  template <typename D>
  static constexpr Manager mgr_heap{
      [](void* dst, void* src) { ::new (dst) D*(heap_ptr<D>(src)); },
      [](void* p) { delete heap_ptr<D>(p); },
  };

  void steal(InlineCallback& o) noexcept {
    invoke_ = o.invoke_;
    mgr_ = o.mgr_;
    if (invoke_ != nullptr) {
      if (mgr_ != nullptr) {
        mgr_->relocate(buf_, o.buf_);
      } else {
        __builtin_memcpy(buf_, o.buf_, kInlineBytes);
      }
      o.invoke_ = nullptr;
      o.mgr_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  const Manager* mgr_ = nullptr;
};

// (generation << 32) | slot index. Generations start at 1, so no valid id
// is ever 0.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// Tag naming an event's origin (see sim/event_tags.hpp for the registry).
// Mixed into the determinism digest alongside timestamp and fire order;
// 0 = untagged. Tags carry no engine semantics — they exist so a digest
// divergence can be attributed to a subsystem.
using EventTag = std::uint32_t;

// One committed (fired) event, as captured by the opt-in event trace.
// `seq` is the fire-order index (events committed before this one), NOT the
// schedule-time sequence: scheduling and cancelling an event must leave the
// committed stream — and so the digest — untouched.
struct FiredEvent {
  SimTime at = 0;
  std::uint64_t seq = 0;
  EventTag tag = 0;

  friend bool operator==(const FiredEvent&, const FiredEvent&) = default;
};

class Engine {
 public:
  using Callback = InlineCallback;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (must be >= now()).
  // Returns a handle usable with cancel().
  //
  // The template overload constructs the callable directly inside the
  // event slot (no intermediate InlineCallback move); the Callback
  // overload takes a pre-built callback, e.g. one moved from elsewhere.
  //
  // `daemon` events (fault-injection perturbations and the like) never keep
  // the engine alive: run()/run_until() stop as soon as no regular events
  // are pending, leaving unfired daemons queued. While regular work exists,
  // daemons fire in normal time order — so background perturbations can
  // never extend a run past its real workload, only interleave with it.
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback>>>
  EventId schedule_at(SimTime at, F&& fn, EventTag tag = 0, bool daemon = false) {
    check_schedule(at);
    return push_event(at, next_seq_++, std::forward<F>(fn), tag, daemon);
  }
  EventId schedule_at(SimTime at, Callback fn, EventTag tag = 0, bool daemon = false);

  // Schedules a regular event at `at` (>= now()) that takes over the
  // sequence number of the event whose callback is running, so it sorts
  // exactly where that event sat: after every event that popped before it,
  // before every event scheduled since — its own callback's included.
  // Consumes no sequence number. A callback may call this at most once
  // (two entries sharing one key would tie); throws std::logic_error
  // outside a callback or on a second call from the same one.
  template <typename F>
  EventId schedule_tied(SimTime at, F&& fn, EventTag tag = 0) {
    if (tied_seq_ == 0) {
      throw std::logic_error("Engine: schedule_tied outside a callback, or twice in one");
    }
    check_schedule(at);
    const std::uint64_t seq = tied_seq_;
    tied_seq_ = 0;
    return push_event(at, seq, std::forward<F>(fn), tag, /*daemon=*/false);
  }

  // Schedules `fn` to run `delay` after now().
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn, EventTag tag = 0, bool daemon = false) {
    return schedule_at(now_ + delay, std::forward<F>(fn), tag, daemon);
  }

  // Cancels a pending event. Returns false if the event already fired,
  // was already cancelled, or never existed.
  bool cancel(EventId id);

  // Moves a pending event to a new time, keeping its callback, tag and
  // daemon flag. Equivalent to cancel(id) + schedule_at(at, <same fn>) —
  // including the sequence number the rescheduled event receives, so the
  // FIFO tie-break (and with it the committed event stream) is identical —
  // but without releasing the slot or reconstructing the callback. Returns
  // the new handle, or kInvalidEvent (consuming nothing) when `id` already
  // fired or was cancelled.
  EventId reschedule(EventId id, SimTime at);

  // Runs events until the queue drains. Returns the number of events fired.
  std::size_t run();

  // Runs events with time <= limit. Events beyond the limit stay queued.
  std::size_t run_until(SimTime limit);

  [[nodiscard]] bool idle() const { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const { return live_; }
  // Pending non-daemon events — what actually keeps run()/run_until() going.
  [[nodiscard]] std::size_t pending_regular() const { return live_regular_; }
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  // Size of the slot pool (== high-water mark of concurrently pending
  // events). Exposed for tests and diagnostics.
  [[nodiscard]] std::size_t pool_slots() const { return num_slots_; }

  // Resets time to zero and drops all pending events. Slot generations
  // survive the reset so pre-reset EventIds stay invalid. The determinism
  // digest and event trace restart from their initial state.
  void reset();

  // --- determinism audit (opt-in; one predicted-not-taken branch per
  // fired event when off) -------------------------------------------------
  //
  // Streaming 64-bit digest over the committed event stream: every fired
  // event mixes (timestamp, schedule order, tag) into the running value.
  // Two runs produce equal digests iff they fired the same event stream —
  // same times, same scheduling order, same origins. Cancelled events never
  // commit and are excluded by construction.
  void set_digest_enabled(bool on) { digest_enabled_ = on; }
  [[nodiscard]] bool digest_enabled() const { return digest_enabled_; }
  [[nodiscard]] std::uint64_t event_digest() const { return digest_; }

  // Captures the first `cap` fired events for divergence reporting (see
  // analysis/determinism.hpp). cap == 0 disables capture.
  void enable_trace(std::size_t cap) {
    trace_cap_ = cap;
    trace_.clear();
    trace_truncated_ = false;
    if (cap != 0) trace_.reserve(cap < 4096 ? cap : 4096);
  }
  [[nodiscard]] const std::vector<FiredEvent>& trace() const { return trace_; }
  [[nodiscard]] bool trace_truncated() const { return trace_truncated_; }

  // SplitMix64 finalizer — the digest's mixing primitive. Public so tests
  // and the analysis layer can reproduce digests from traces.
  [[nodiscard]] static constexpr std::uint64_t mix64(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  [[nodiscard]] static constexpr std::uint64_t digest_step(std::uint64_t digest,
                                                           const FiredEvent& e) {
    std::uint64_t h = mix64(static_cast<std::uint64_t>(e.at) + 0x9E3779B97F4A7C15ull);
    h = mix64(h ^ e.seq);
    h = mix64(h ^ e.tag);
    return mix64(digest ^ h);
  }

 private:
  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoFreeSlot;
    std::uint32_t heap_pos = kNotInHeap;  // index of this slot's entry
    EventTag tag = 0;
    bool daemon = false;
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // FIFO tie-break among simultaneous events
    std::uint32_t slot;
    std::uint32_t generation;
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr std::uint32_t kNotInHeap = 0xffffffffu;
  static constexpr std::size_t kArity = 4;        // d-ary heap fan-out
  static constexpr std::uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    // Branchless on purpose: heap sift comparisons are data-dependent and
    // mispredict heavily when written as an early-return chain.
    return (a.at < b.at) | ((a.at == b.at) & (a.seq < b.seq));
  }

  [[nodiscard]] Slot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSlots - 1)];
  }

  void check_schedule(SimTime at) const {
    if (at < now_) throw std::logic_error("Engine: scheduling into the past");
  }

  template <typename F>
  EventId push_event(SimTime at, std::uint64_t seq, F&& fn, EventTag tag, bool daemon) {
    const std::uint32_t idx = acquire_slot();
    Slot& s = slot(idx);
    if constexpr (std::is_same_v<std::decay_t<F>, Callback>) {
      s.fn = std::forward<F>(fn);
    } else {
      s.fn.emplace(std::forward<F>(fn));
    }
    s.tag = tag;
    s.daemon = daemon;
    heap_push(Entry{at, seq, idx, s.generation});
    ++live_;
    if (!daemon) ++live_regular_;
    return (static_cast<EventId>(s.generation) << 32) | idx;
  }

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  void heap_push(const Entry& e);
  void heap_pop_min();
  // Removes the entry at heap position `pos` (slot bookkeeping included).
  void heap_remove(std::size_t pos);
  // Places `e` at position `pos`, sifting up or down as its key demands.
  void heap_sift(std::size_t pos, const Entry& e);

  void commit_event(SimTime at, std::uint64_t fire_index, EventTag tag) {
    const FiredEvent ev{at, fire_index, tag};
    if (digest_enabled_) digest_ = digest_step(digest_, ev);
    if (trace_cap_ != 0) {
      if (trace_.size() < trace_cap_) {
        trace_.push_back(ev);
      } else {
        trace_truncated_ = true;
      }
    }
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  // Sequence number of the event whose callback is running, until a
  // schedule_tied() claims it; 0 outside callbacks (no event has seq 0).
  std::uint64_t tied_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t live_regular_ = 0;
  std::uint64_t fired_ = 0;
  bool digest_enabled_ = false;
  bool trace_truncated_ = false;
  std::uint64_t digest_ = 0;
  std::size_t trace_cap_ = 0;
  std::vector<FiredEvent> trace_;
  std::vector<Entry> heap_;
  // Chunked pool: slot addresses are stable for the engine's lifetime.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t num_slots_ = 0;
  std::uint32_t free_head_ = kNoFreeSlot;
};

}  // namespace ilan::sim
