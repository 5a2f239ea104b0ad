// Server performance-variability injectors (§2.2 of the paper).
//
// Request-processing latency at real servers regresses at 100µs–1ms time
// scales from preemptions, garbage collection, background compaction and
// noisy neighbours. Injectors model those regressions; a KvServer applies
// every attached injector to each request it processes.
//
// Two mechanisms:
//  * extra_service_time() — additive per-request inflation (a slow
//    downstream dependency, DependencyInjector below);
//  * frozen_until() — a global stall: no worker may *start* a request before
//    the returned time (a GC/compaction-style freeze; fault/server_faults.h's
//    ScheduledFreezeInjector).
#pragma once

#include "util/rng.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

INBAND_SHARD_LOCAL(owner)
class VariabilityInjector {
 public:
  virtual ~VariabilityInjector() = default;

  // Re-seeds this injector's private RNG stream. KvServer::add_injector
  // calls it with a stream derived from the server seed and the attachment
  // index; seed it manually when driving an injector outside a server.
  void seed_stream(std::uint64_t seed) { rng_.reseed(seed); }

  // Additional service time for a request whose base cost is `base`,
  // starting at `now`.
  virtual SimTime extra_service_time(SimTime now, SimTime base) {
    (void)now;
    (void)base;
    return 0;
  }

  // If the process is stalled at `now`, the time the stall ends; else <= now.
  virtual SimTime frozen_until(SimTime now) {
    (void)now;
    return 0;
  }

 protected:
  // Every injector draws from its own stream. Injectors that consumed their
  // server's stream made one entity's draw history depend on another's call
  // pattern — exactly the cross-entity coupling a per-shard digest cannot
  // tolerate.
  Rng rng_{0};
};

// A downstream service shared by several frontend servers (§5(3) of the
// paper: "a server appears to be slow not because it is slow but [because]
// one of its downstream dependencies is slow"). Each frontend request that
// touches the dependency pays its base delay plus whatever inflation is
// currently injected into the dependency. Several servers holding injectors
// onto the *same* SharedDependency slow down together — the signature that
// distinguishes a dependency fault from a server fault.
INBAND_SHARD_CHANNEL
class SharedDependency {
 public:
  explicit SharedDependency(SimTime base_delay) : base_{base_delay} {}

  // Extra delay injected from `at` onward (e.g. the dependency degrades).
  void inject(SimTime at, SimTime extra) {
    inject_at_ = at;
    extra_ = extra;
  }

  SimTime delay_at(SimTime now) const {
    return base_ + (inject_at_ != kNoTime && now >= inject_at_ ? extra_ : 0);
  }

 private:
  SimTime base_;
  SimTime inject_at_ = kNoTime;
  SimTime extra_ = 0;
};

// Attaches a server to a SharedDependency: a fraction of requests call it
// and pay its current delay.
INBAND_SHARD_LOCAL(owner)
class DependencyInjector final : public VariabilityInjector {
 public:
  DependencyInjector(const SharedDependency& dep, double call_fraction)
      : dep_{dep}, call_fraction_{call_fraction} {}

  SimTime extra_service_time(SimTime now, SimTime base) override {
    (void)base;
    if (!rng_.bernoulli(call_fraction_)) return 0;
    return dep_.delay_at(now);
  }

 private:
  const SharedDependency& dep_;
  double call_fraction_;
};

}  // namespace inband
