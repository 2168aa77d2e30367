#include "net/event_loop.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace seaweed::net {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t UnixNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  SEAWEED_CHECK(flags >= 0);
  SEAWEED_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

EventLoop::EventLoop(int64_t epoch_unix_us) {
  const int64_t unix_now = UnixNowUs();
  epoch_unix_us_ = epoch_unix_us > 0 ? epoch_unix_us : unix_now;
  // Anchor once against the steady clock so Now() is monotone even if the
  // wall clock steps; processes sharing an epoch agree up to NTP skew.
  steady_to_now_us_ = (unix_now - epoch_unix_us_) - SteadyNowUs();
  SEAWEED_CHECK(pipe(wake_pipe_) == 0);
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);
}

EventLoop::~EventLoop() {
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
}

int64_t EventLoop::WallNowUs() const { return SteadyNowUs() + steady_to_now_us_; }

SimTime EventLoop::Now() const {
  // Never run the clock backwards past a fired timer: protocol code assumes
  // Now() >= the time of the event it is running inside.
  return std::max<SimTime>(WallNowUs(), timer_floor_);
}

EventId EventLoop::At(SimTime when, EventFn fn) {
  // Past-due timers (including the common After(0)) fire on the next
  // iteration; the queue's floor is the time of the last popped timer.
  return timers_.Schedule(std::max(when, timer_floor_), std::move(fn));
}

bool EventLoop::Cancel(EventId id) { return timers_.Cancel(id); }

void EventLoop::WatchFd(int fd, bool want_write, FdHandler handler) {
  const short events =
      static_cast<short>(POLLIN | (want_write ? POLLOUT : 0));
  for (Watch& w : watches_) {
    if (w.fd == fd) {
      w.events = events;
      w.handler = std::move(handler);
      return;
    }
  }
  watches_.push_back(Watch{fd, events, std::move(handler)});
}

void EventLoop::UnwatchFd(int fd) {
  watches_.erase(std::remove_if(watches_.begin(), watches_.end(),
                                [fd](const Watch& w) { return w.fd == fd; }),
                 watches_.end());
}

void EventLoop::Stop() {
  stop_ = 1;
  const char byte = 'w';
  // Best effort: a full pipe already guarantees a pending wake.
  [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &byte, 1);
}

void EventLoop::FireDueTimers() {
  // Timers due at entry run now; ones their callbacks schedule at <= Now()
  // run next iteration (no starvation of fd handling).
  const SimTime due = Now();
  while (!timers_.empty() && timers_.PeekTime() <= due) {
    auto [when, fn] = timers_.Pop();
    timer_floor_ = std::max(timer_floor_, when);
    fn();
  }
}

void EventLoop::RunOnce(SimDuration max_wait) {
  FireDueTimers();
  if (stop_) return;

  SimDuration wait = max_wait;
  if (!timers_.empty()) {
    wait = std::min<SimDuration>(wait, timers_.PeekTime() - Now());
  }
  int timeout_ms =
      wait <= 0 ? 0
                : static_cast<int>(std::min<SimDuration>(
                      (wait + 999) / 1000, 60 * 1000));

  std::vector<pollfd> fds;
  fds.reserve(watches_.size() + 1);
  fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
  for (const Watch& w : watches_) fds.push_back(pollfd{w.fd, w.events, 0});

  int rc = poll(fds.data(), fds.size(), timeout_ms);
  if (rc < 0) return;  // EINTR: fall through to the next iteration

  if (fds[0].revents != 0) {
    char buf[64];
    while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
    }
  }
  // Snapshot (fd, revents): handlers may Watch/Unwatch while we dispatch.
  std::vector<std::pair<int, short>> ready;
  for (size_t i = 1; i < fds.size(); ++i) {
    if (fds[i].revents != 0) ready.emplace_back(fds[i].fd, fds[i].revents);
  }
  for (const auto& [fd, revents] : ready) {
    for (const Watch& w : watches_) {
      if (w.fd == fd) {
        w.handler(static_cast<uint32_t>(revents));
        break;
      }
    }
  }
}

void EventLoop::Run() {
  while (!stop_) RunOnce(/*max_wait=*/100 * kMillisecond);
}

}  // namespace seaweed::net
