// EventLoop: the wall-clock Scheduler backing live deployments.
//
// A single-threaded poll(2) loop over registered file descriptors plus the
// simulator's own EventQueue reused as the timer wheel. Protocol code
// (PastryNode, SeaweedNode) holds a Scheduler* and never learns whether
// Now() is simulated or real: here Now() is a monotonic microsecond clock
// anchored to a configurable epoch, At()/After()/Cancel() are timers on the
// calendar queue, and every callback — timer or fd readiness — runs on the
// one loop thread, so the single-threaded execution model protocol code was
// written against holds in live mode too. Stop() is the only entry from
// another context (seaweedd's signal handler).
//
// The epoch matters for multi-process deployments: Query::injected_at and
// availability-model timestamps travel on the wire and are compared against
// the receiver's Now(), so every seaweedd in a cluster is started with the
// same --epoch (Unix microseconds). Times then stay small (seconds since
// cluster start), which also keeps the hour-bucketed bandwidth timeseries
// dense and FormatSimTime readable.
#pragma once

#include <csignal>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.h"

namespace seaweed::net {

class EventLoop : public Scheduler {
 public:
  // `epoch_unix_us` anchors Now() == 0 at that Unix wall-clock instant; 0
  // (default) anchors at construction time.
  explicit EventLoop(int64_t epoch_unix_us = 0);
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // --- Scheduler ---
  SimTime Now() const override;
  EventId At(SimTime when, EventFn fn) override;
  bool Cancel(EventId id) override;

  // --- Fd readiness ---
  using FdHandler = std::function<void(uint32_t revents)>;
  // Registers `fd` for POLLIN (plus POLLOUT when `want_write`); the handler
  // runs on the loop thread with the poll revents bits. Re-registering an
  // fd replaces its handler/interest. Loop-thread only.
  void WatchFd(int fd, bool want_write, FdHandler handler);
  void UnwatchFd(int fd);

  // Runs until Stop(). Dispatches, in order per iteration: due timers, then
  // fd readiness.
  void Run();
  // Runs one poll iteration with at most `max_wait` of blocking (useful for
  // tests and for loops that interleave with other work).
  void RunOnce(SimDuration max_wait);
  // Async-signal-safe (a flag store plus one write(2) to a self-pipe that
  // interrupts the current poll); the loop exits before the next poll.
  void Stop();

  bool stopped() const { return stop_ != 0; }

 private:
  void FireDueTimers();
  int64_t WallNowUs() const;

  int64_t epoch_unix_us_ = 0;
  // steady-clock offset such that Now() = steady_us + steady_to_now_us_.
  int64_t steady_to_now_us_ = 0;

  EventQueue timers_;
  // Mirror of the queue's schedule floor: EventQueue::Schedule requires
  // when >= the last popped time, and a wall clock read between pops can
  // land below it.
  SimTime timer_floor_ = 0;

  struct Watch {
    int fd;
    short events;
    FdHandler handler;
  };
  std::vector<Watch> watches_;

  int wake_pipe_[2] = {-1, -1};
  volatile std::sig_atomic_t stop_ = 0;
};

}  // namespace seaweed::net
