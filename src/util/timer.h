// Wall-clock timing for the benchmark harnesses.

#ifndef DBSA_UTIL_TIMER_H_
#define DBSA_UTIL_TIMER_H_

#include <chrono>

namespace dbsa {

/// Steady-clock stopwatch. Starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Elapsed seconds since construction or last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds.
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dbsa

#endif  // DBSA_UTIL_TIMER_H_
