// Protocol guard timer (T3410, T3210, RRC inactivity, ...) bound to a
// simulation kernel. Restartable; stopping or destroying the timer cancels
// the pending expiry.
//
// Templated on the kernel so the queue-discipline property suite can bind
// the same timer logic to the reference heap kernel (tests/heap_ref.h) and
// diff TimerStats against sim::Simulator. Production code uses the `Timer`
// alias and never sees the template.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "sim/simulator.h"
#include "util/time.h"

namespace cnv::sim {

template <class Sim>
class BasicTimer {
 public:
  BasicTimer(Sim& sim, std::string name) : sim_(sim), name_(std::move(name)) {}
  ~BasicTimer() { Stop(); }
  BasicTimer(const BasicTimer&) = delete;
  BasicTimer& operator=(const BasicTimer&) = delete;

  // (Re)starts the timer: `on_expiry` fires once after `d` unless stopped.
  void Start(SimDuration d, std::function<void()> on_expiry) {
    Stop();
    running_ = true;
    ++sim_.timer_stats().armed;
    id_ = sim_.ScheduleIn(d, [this, cb = std::move(on_expiry)] {
      running_ = false;
      id_ = Sim::kInvalidEvent;
      ++sim_.timer_stats().fired;
      cb();
    });
  }

  void Stop() {
    if (running_) {
      sim_.Cancel(id_);
      running_ = false;
      id_ = Sim::kInvalidEvent;
      ++sim_.timer_stats().cancelled;
    }
  }

  bool IsRunning() const { return running_; }
  const std::string& name() const { return name_; }

 private:
  Sim& sim_;
  std::string name_;
  bool running_ = false;
  typename Sim::EventId id_ = Sim::kInvalidEvent;
};

using Timer = BasicTimer<Simulator>;

}  // namespace cnv::sim
