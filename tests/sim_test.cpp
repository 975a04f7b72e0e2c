#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/noise.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace {

using namespace ilan::sim;

TEST(Time, Conversions) {
  EXPECT_EQ(from_ns(1.0), 1'000);
  EXPECT_EQ(from_us(1.0), 1'000'000);
  EXPECT_EQ(from_ms(1.0), 1'000'000'000);
  EXPECT_EQ(from_seconds(1.0), 1'000'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_ns(from_ns(42.0)), 42.0);
}

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(300, [&] { order.push_back(3); });
  e.schedule_at(100, [&] { order.push_back(1); });
  e.schedule_at(200, [&] { order.push_back(2); });
  EXPECT_EQ(e.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 300);
}

TEST(Engine, SimultaneousEventsAreFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    e.schedule_at(500, [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, CancelPreventsFiring) {
  Engine e;
  bool fired = false;
  const auto id = e.schedule_at(100, [&] { fired = true; });
  EXPECT_TRUE(e.cancel(id));
  EXPECT_FALSE(e.cancel(id));  // second cancel is a no-op
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(e.idle());
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine e;
  const auto id = e.schedule_at(10, [] {});
  e.run();
  EXPECT_FALSE(e.cancel(id));
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine e;
  int count = 0;
  e.schedule_at(100, [&] { ++count; });
  e.schedule_at(200, [&] { ++count; });
  e.schedule_at(300, [&] { ++count; });
  EXPECT_EQ(e.run_until(200), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(e.pending(), 1u);
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_after(10, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 40);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(100, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(50, [] {}), std::logic_error);
  EXPECT_THROW(e.schedule_at(100, Engine::Callback{}), std::invalid_argument);
}

TEST(Engine, ResetClearsEverything) {
  Engine e;
  e.schedule_at(100, [] {});
  e.schedule_at(200, [] {});
  e.run_until(150);
  e.reset();
  EXPECT_EQ(e.now(), 0);
  EXPECT_TRUE(e.idle());
  EXPECT_EQ(e.run(), 0u);
}

TEST(Engine, StaleIdOfReusedSlotDoesNotCancel) {
  Engine e;
  // Fire one event so its slot returns to the free list...
  const auto stale = e.schedule_at(10, [] {});
  e.run();
  // ...then re-occupy it. The slot pool is LIFO, so the very next event
  // reuses the slot, with a bumped generation.
  int fired = 0;
  const auto fresh = e.schedule_at(20, [&] { ++fired; });
  EXPECT_EQ(static_cast<std::uint32_t>(stale), static_cast<std::uint32_t>(fresh));
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(e.cancel(stale));  // stale handle must miss the reused slot
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(e.cancel(fresh));  // already fired
}

TEST(Engine, SelfCancelFromCallbackIsNoop) {
  Engine e;
  EventId self = kInvalidEvent;
  int fired = 0;
  self = e.schedule_at(10, [&] {
    ++fired;
    EXPECT_FALSE(e.cancel(self));  // an executing event is no longer pending
  });
  e.run();
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StressInterleavedScheduleCancelReset) {
  Engine e;
  Xoshiro256ss rng(2024);
  std::uint64_t fired = 0;
  std::uint64_t cancelled = 0;
  std::vector<EventId> pending;
  std::vector<EventId> spent;  // fired or cancelled: must never cancel again
  for (int round = 0; round < 50; ++round) {
    for (int op = 0; op < 400; ++op) {
      const auto r = rng.below(100);
      if (r < 55 || pending.empty()) {
        pending.push_back(
            e.schedule_after(static_cast<SimTime>(1 + rng.below(500)), [&] { ++fired; }));
      } else if (r < 80) {
        const auto i = rng.below(static_cast<std::uint32_t>(pending.size()));
        EXPECT_TRUE(e.cancel(pending[i]));
        ++cancelled;
        spent.push_back(pending[i]);
        pending[i] = pending.back();
        pending.pop_back();
      } else {
        e.run_until(e.now() + static_cast<SimTime>(rng.below(300)));
        // Cancel whatever survived the window; either way every handle is
        // now spent and must stay dead.
        for (const auto id : pending) {
          if (e.cancel(id)) ++cancelled;
          spent.push_back(id);
        }
        pending.clear();
      }
    }
    // Stale handles (fired or cancelled) must stay dead even though their
    // slots have long been reused.
    for (const auto id : spent) EXPECT_FALSE(e.cancel(id));
    e.run();
    EXPECT_TRUE(e.idle());
    EXPECT_EQ(e.pending(), 0u);
    if (round % 10 == 9) {
      e.reset();
      EXPECT_EQ(e.now(), 0);
      spent.clear();  // reset invalidates ids by generation bump, checked above
    }
    pending.clear();
  }
  EXPECT_GT(fired, 0u);
  EXPECT_GT(cancelled, 0u);
  // The pool's high-water mark is bounded by the max concurrently-pending
  // events, not by the ~20k events scheduled over the test.
  EXPECT_GT(e.pool_slots(), 0u);
  EXPECT_LE(e.pool_slots(), 1024u);
}

TEST(Rng, SplitMix64ReferenceVector) {
  // Reference values for seed 1234567 from the SplitMix64 reference code.
  SplitMix64 sm(1234567);
  const std::uint64_t a = sm.next();
  const std::uint64_t b = sm.next();
  EXPECT_NE(a, b);
  // Determinism.
  SplitMix64 sm2(1234567);
  EXPECT_EQ(sm2.next(), a);
  EXPECT_EQ(sm2.next(), b);
}

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256ss a(42);
  Xoshiro256ss b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  Xoshiro256ss c(43);
  bool any_diff = false;
  Xoshiro256ss a2(42);
  for (int i = 0; i < 100; ++i) any_diff |= (a2() != c());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInRange) {
  Xoshiro256ss rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1'000; ++i) {
    const double v = rng.uniform(3.0, 5.0);
    EXPECT_GE(v, 3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, BelowInRangeAndRoughlyUniform) {
  Xoshiro256ss rng(11);
  std::vector<int> hist(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++hist[static_cast<std::size_t>(v)];
  }
  for (const int h : hist) {
    EXPECT_NEAR(h, n / 10, n / 100);  // within 10% relative
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256ss rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256ss rng(99);
  auto s1 = rng.split(1);
  auto s2 = rng.split(2);
  bool differ = false;
  for (int i = 0; i < 16; ++i) differ |= (s1() != s2());
  EXPECT_TRUE(differ);
  // Split is a const operation on the parent.
  auto s1b = rng.split(1);
  Xoshiro256ss s1c = rng.split(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s1b(), s1c());
}

TEST(Noise, DeterministicPerSeed) {
  const NoiseParams p;
  NoiseModel a(p, 5, 64);
  NoiseModel b(p, 5, 64);
  for (int c = 0; c < 64; ++c) {
    EXPECT_DOUBLE_EQ(a.core_freq_factor(c), b.core_freq_factor(c));
  }
  EXPECT_DOUBLE_EQ(a.sched_jitter(), b.sched_jitter());
}

TEST(Noise, FactorsAreClamped) {
  const NoiseParams p;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    NoiseModel m(p, seed, 16);
    for (int c = 0; c < 16; ++c) {
      EXPECT_GE(m.core_freq_factor(c), 0.5);
      EXPECT_LE(m.core_freq_factor(c), 1.15);
    }
    EXPECT_GE(m.sched_jitter(), 0.5);
  }
}

TEST(Noise, DisabledMeansUnity) {
  NoiseParams p;
  p.enabled = false;
  NoiseModel m(p, 77, 8);
  for (int c = 0; c < 8; ++c) EXPECT_DOUBLE_EQ(m.core_freq_factor(c), 1.0);
  EXPECT_DOUBLE_EQ(m.sched_jitter(), 1.0);
  EXPECT_FALSE(m.has_disturbed_core());
}

TEST(Noise, DisturbedCoreAppearsAtDocumentedRate) {
  const NoiseParams p;
  int disturbed = 0;
  const int trials = 2'000;
  for (int seed = 0; seed < trials; ++seed) {
    NoiseModel m(p, static_cast<std::uint64_t>(seed), 64);
    if (m.has_disturbed_core()) {
      ++disturbed;
      EXPECT_GE(m.disturbed_core(), 0);
      EXPECT_LT(m.disturbed_core(), 64);
      // The disturbed core is meaningfully slower.
      EXPECT_LT(m.core_freq_factor(m.disturbed_core()), 0.85);
    }
  }
  // ~5% +- generous margin.
  EXPECT_GT(disturbed, trials / 40);
  EXPECT_LT(disturbed, trials / 10);
}

// --- determinism digest and event trace ------------------------------------

TEST(EngineDigest, IdenticalSchedulesYieldIdenticalDigests) {
  auto run = [] {
    Engine e;
    e.set_digest_enabled(true);
    e.schedule_at(100, [] {}, 7);
    e.schedule_at(200, [] {}, 8);
    e.schedule_at(200, [] {}, 9);
    e.run();
    return e.event_digest();
  };
  EXPECT_NE(run(), 0u);
  EXPECT_EQ(run(), run());
}

TEST(EngineDigest, OffByDefaultAndZeroWhenOff) {
  Engine e;
  EXPECT_FALSE(e.digest_enabled());
  e.schedule_at(100, [] {}, 7);
  e.run();
  EXPECT_EQ(e.event_digest(), 0u);
}

TEST(EngineDigest, TagTimeAndOrderAllChangeTheDigest) {
  auto run = [](SimTime at, EventTag tag, bool swap) {
    Engine e;
    e.set_digest_enabled(true);
    if (swap) {
      e.schedule_at(500, [] {}, 2);
      e.schedule_at(at, [] {}, tag);
    } else {
      e.schedule_at(at, [] {}, tag);
      e.schedule_at(500, [] {}, 2);
    }
    e.run();
    return e.event_digest();
  };
  const auto base = run(500, 1, false);
  EXPECT_NE(run(500, 3, false), base);  // tag
  EXPECT_NE(run(400, 1, false), base);  // timestamp
  // FIFO order among simultaneous events is part of the committed stream.
  EXPECT_NE(run(500, 1, true), base);
}

TEST(EngineDigest, CancelledEventsNeverCommit) {
  auto run = [](bool with_cancelled) {
    Engine e;
    e.set_digest_enabled(true);
    e.schedule_at(100, [] {}, 1);
    if (with_cancelled) {
      const EventId id = e.schedule_at(150, [] {}, 9);
      EXPECT_TRUE(e.cancel(id));
    }
    e.schedule_at(200, [] {}, 2);
    e.run();
    return e.event_digest();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(EngineDigest, TraceMatchesDigestAndTruncates) {
  Engine e;
  e.set_digest_enabled(true);
  e.enable_trace(2);
  e.schedule_at(100, [] {}, 1);
  e.schedule_at(200, [] {}, 2);
  e.schedule_at(300, [] {}, 3);
  e.run();
  ASSERT_EQ(e.trace().size(), 2u);  // capped
  EXPECT_TRUE(e.trace_truncated());
  EXPECT_EQ(e.trace()[0].at, 100);
  EXPECT_EQ(e.trace()[0].tag, 1u);
  EXPECT_EQ(e.trace()[1].at, 200);

  // An uncapped trace folds to exactly the streaming digest.
  Engine f;
  f.set_digest_enabled(true);
  f.enable_trace(16);
  f.schedule_at(100, [] {}, 1);
  f.schedule_at(200, [] {}, 2);
  f.schedule_at(300, [] {}, 3);
  f.run();
  std::uint64_t folded = 0;
  for (const FiredEvent& ev : f.trace()) folded = Engine::digest_step(folded, ev);
  EXPECT_EQ(folded, f.event_digest());
  EXPECT_FALSE(f.trace_truncated());
}

// Daemon events (fault injection and other background perturbations) fire
// in time order while real work pends but can never keep the engine alive.
TEST(EngineDaemon, DaemonsAloneNeverRun) {
  Engine e;
  bool fired = false;
  e.schedule_at(100, [&fired] { fired = true; }, 0, /*daemon=*/true);
  EXPECT_EQ(e.run(), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.pending_regular(), 0u);
}

TEST(EngineDaemon, DaemonsInterleaveOnlyUpToTheLastRegularEvent) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(50, [&order] { order.push_back(1); }, 0, true);
  e.schedule_at(100, [&order] { order.push_back(2); });
  e.schedule_at(150, [&order] { order.push_back(3); }, 0, true);  // never fires
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.now(), 100);
  EXPECT_EQ(e.pending(), 1u);  // the 150 daemon stays queued
  EXPECT_EQ(e.pending_regular(), 0u);
}

TEST(EngineDaemon, CancelKeepsRegularAccountingExact) {
  Engine e;
  const EventId d = e.schedule_at(10, [] {}, 0, true);
  const EventId r = e.schedule_at(20, [] {});
  EXPECT_EQ(e.pending(), 2u);
  EXPECT_EQ(e.pending_regular(), 1u);
  EXPECT_TRUE(e.cancel(d));
  EXPECT_EQ(e.pending_regular(), 1u);  // cancelling a daemon changes nothing
  EXPECT_TRUE(e.cancel(r));
  EXPECT_EQ(e.pending_regular(), 0u);
  EXPECT_EQ(e.run(), 0u);
}

TEST(EngineDaemon, SelfReschedulingDaemonCannotExtendTheRun) {
  Engine e;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    e.schedule_after(10, [&tick] { tick(); }, 0, true);
  };
  e.schedule_at(5, [&tick] { tick(); }, 0, true);
  e.schedule_at(47, [] {});
  e.run();
  EXPECT_EQ(e.now(), 47);
  EXPECT_EQ(ticks, 5);  // fired at 5, 15, 25, 35, 45; the 55 one stays queued
  EXPECT_EQ(e.pending_regular(), 0u);
}

TEST(EngineDaemon, RunUntilHonorsTheLimitForDaemonsToo) {
  Engine e;
  int daemon_fires = 0;
  e.schedule_at(10, [&daemon_fires] { ++daemon_fires; }, 0, true);
  e.schedule_at(30, [&daemon_fires] { ++daemon_fires; }, 0, true);
  e.schedule_at(40, [] {});
  e.run_until(20);
  EXPECT_EQ(daemon_fires, 1);
  EXPECT_EQ(e.pending_regular(), 1u);
  e.run();
  EXPECT_EQ(daemon_fires, 2);
  EXPECT_EQ(e.now(), 40);
}

TEST(EngineDigest, ResetClearsDigestAndTrace) {
  Engine e;
  e.set_digest_enabled(true);
  e.enable_trace(8);
  e.schedule_at(100, [] {}, 1);
  e.run();
  EXPECT_NE(e.event_digest(), 0u);
  e.reset();
  EXPECT_EQ(e.event_digest(), 0u);
  EXPECT_TRUE(e.trace().empty());
}

// schedule_tied: a callback re-arms an event that takes over the firing
// event's sequence number. These pin the ordering the memory system's
// single completion event relies on.
TEST(EngineTied, FiresAfterEarlierSequenceEventsAtItsTime) {
  Engine e;
  std::vector<char> order;
  e.schedule_at(200, [&] { order.push_back('a'); });  // seq 1
  e.schedule_at(100, [&] {                             // seq 2
    order.push_back('b');
    e.schedule_at(200, [&] { order.push_back('d'); });  // seq 4
    e.schedule_tied(200, [&] { order.push_back('t'); });
  });
  e.schedule_at(200, [&] { order.push_back('c'); });  // seq 3
  e.run();
  // At t=200 the tied event sorts as seq 2: after 'a', before 'c' and 'd'.
  EXPECT_EQ(order, (std::vector<char>{'b', 'a', 't', 'c', 'd'}));
}

TEST(EngineTied, FiresBeforeEventsItsOwnCallbackScheduled) {
  Engine e;
  std::vector<char> order;
  e.schedule_at(100, [&] { order.push_back('x'); });  // seq 1
  e.schedule_at(100, [&] {                             // seq 2
    order.push_back('y');
    e.schedule_at(100, [&] { order.push_back('w'); });  // seq 4, same instant
    e.schedule_tied(100, [&] { order.push_back('t'); });
  });
  e.schedule_at(100, [&] { order.push_back('z'); });  // seq 3
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'x', 'y', 't', 'z', 'w'}));
}

TEST(EngineTied, ChainCommitsTheSameStreamAsABlockOfEvents) {
  // K events in one back-to-back block at one instant versus one event
  // that re-arms itself tied K-1 times; each also schedules a follower at
  // the same instant. Both fire in the same order with consecutive fire
  // indices, so the traces and digests match.
  constexpr int kK = 5;
  const auto run = [](bool tied) {
    Engine e;
    e.set_digest_enabled(true);
    e.enable_trace(64);
    std::vector<int> order;
    int left = kK;
    std::function<void()> fire = [&] {
      order.push_back(kK - left);
      if (--left > 0) e.schedule_tied(e.now(), [&] { fire(); }, 3);
      e.schedule_at(e.now(), [&] { order.push_back(100); }, 9);
    };
    e.schedule_at(50, [&] { order.push_back(-1); }, 7);
    if (tied) {
      e.schedule_at(50, [&] { fire(); }, 3);
    } else {
      for (int i = 0; i < kK; ++i) {
        e.schedule_at(
            50,
            [&, i] {
              order.push_back(i);
              e.schedule_at(e.now(), [&] { order.push_back(100); }, 9);
            },
            3);
      }
    }
    e.schedule_at(50, [&] { order.push_back(-2); }, 8);
    e.run();
    return std::make_tuple(order, e.trace(), e.event_digest(), e.events_fired());
  };
  const auto [order_block, trace_block, digest_block, fired_block] = run(false);
  const auto [order_tied, trace_tied, digest_tied, fired_tied] = run(true);
  EXPECT_EQ(order_tied, order_block);
  EXPECT_EQ(trace_tied, trace_block);
  EXPECT_EQ(digest_tied, digest_block);
  EXPECT_EQ(fired_tied, fired_block);
  ASSERT_EQ(trace_tied.size(), static_cast<std::size_t>(2 + 2 * kK));
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < trace_tied.size(); ++i) {
    EXPECT_EQ(trace_tied[i].seq, i);  // fire indices stay consecutive
    digest = Engine::digest_step(digest, trace_tied[i]);
  }
  EXPECT_EQ(digest, digest_tied);
  const std::vector<int> want = {-1, 0, 1, 2, 3, 4, -2, 100, 100, 100, 100, 100};
  EXPECT_EQ(order_tied, want);
}

TEST(EngineTied, ThrowsOutsideACallbackOrOnASecondCall) {
  Engine e;
  EXPECT_THROW(e.schedule_tied(0, [] {}), std::logic_error);
  bool second_threw = false;
  int fired = 0;
  e.schedule_at(10, [&] {
    e.schedule_tied(10, [&] { ++fired; });
    try {
      e.schedule_tied(10, [&] { ++fired; });
    } catch (const std::logic_error&) {
      second_threw = true;
    }
  });
  e.run();
  EXPECT_TRUE(second_threw);
  EXPECT_EQ(fired, 1);
  EXPECT_THROW(e.schedule_tied(20, [] {}), std::logic_error);  // after run()
  EXPECT_EQ(e.pending_regular(), 0u);
}

}  // namespace
