// Exponentially weighted moving average over time.
//
// DecayingEwma is a time-aware EWMA whose weight on the old value decays
// exponentially with the gap since the previous sample; robust when the
// sampling rate itself varies (exactly the case for per-server latency
// samples at the LB, whose arrival rate depends on traffic share).
#pragma once

#include <cmath>

#include "util/assert.h"
#include "util/shard.h"
#include "util/time.h"

namespace inband {

INBAND_SHARD_LOCAL(owner)
class DecayingEwma {
 public:
  // tau: time constant; a sample that arrives tau after the previous one
  // replaces ~63% of the old value.
  explicit DecayingEwma(SimTime tau) : tau_{tau} { INBAND_ASSERT(tau > 0); }

  void record(SimTime now, double sample) {
    if (!initialized_) {
      value_ = sample;
      last_ = now;
      initialized_ = true;
      return;
    }
    const SimTime dt = now >= last_ ? now - last_ : 0;
    const double keep =
        std::exp(-static_cast<double>(dt) / static_cast<double>(tau_));
    value_ = keep * value_ + (1.0 - keep) * sample;
    last_ = now;
  }

  bool initialized() const { return initialized_; }
  double value() const { return initialized_ ? value_ : 0.0; }
  SimTime last_sample_time() const { return initialized_ ? last_ : kNoTime; }

  void reset() {
    initialized_ = false;
    value_ = 0.0;
    last_ = kNoTime;
  }

 private:
  SimTime tau_;
  double value_ = 0.0;
  SimTime last_ = kNoTime;
  bool initialized_ = false;
};

}  // namespace inband
