#include "open_loop.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <list>
#include <mutex>
#include <thread>

namespace perfbench {

using Clock = std::chrono::steady_clock;

OpenLoopRun run_open_loop(const std::vector<double>& due_s,
                          const Submit& submit) {
  const std::size_t n = due_s.size();
  OpenLoopRun run;
  run.samples.resize(n);
  std::vector<std::future<eidb::query::QueryResponse>> futures(n);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> sent;  // guarded by mu
  bool done = false;             // guarded by mu
  std::atomic<std::size_t> seen_count{0};

  const Clock::time_point start = Clock::now();
  const auto since_start = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::thread collector([&] {
    // Futures resolve out of order within a coalesced batch: poll every
    // outstanding one, and block (briefly) only on the oldest, so a
    // response is stamped within ~0.5 ms of becoming ready.
    std::list<std::size_t> outstanding;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        if (outstanding.empty())
          cv.wait(lock, [&] { return done || !sent.empty(); });
        while (!sent.empty()) {
          outstanding.push_back(sent.front());
          sent.pop_front();
        }
        if (outstanding.empty() && done) return;
      }
      for (auto it = outstanding.begin(); it != outstanding.end();) {
        if (futures[*it].wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          OpenLoopSample& s = run.samples[*it];
          s.seen_s = since_start();
          try {
            s.response = futures[*it].get();
          } catch (const std::exception& e) {
            s.response.status = eidb::query::ResponseStatus::kError;
            s.response.error = e.what();
          }
          seen_count.fetch_add(1);
          it = outstanding.erase(it);
        } else {
          ++it;
        }
      }
      if (!outstanding.empty())
        (void)futures[outstanding.front()].wait_for(
            std::chrono::microseconds(500));
    }
  });

  const auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();
  };
  try {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due_s[i])));
      OpenLoopSample& s = run.samples[i];
      s.due_s = due_s[i];
      s.sent_s = since_start();
      futures[i] = submit(i);
      {
        std::lock_guard<std::mutex> lock(mu);
        sent.push_back(i);
      }
      cv.notify_one();
    }
  } catch (...) {
    finish();  // the requests already sent are still collected
    throw;
  }
  run.offer_s = since_start();
  run.backlog_end = n - seen_count.load();
  finish();
  return run;
}

std::vector<double> poisson_schedule(Rng& rng, double rate, double seconds) {
  std::vector<double> due;
  for (double t = 0;;) {
    t += -std::log(1.0 - rng.unit()) / rate;
    if (t >= seconds) return due;
    due.push_back(t);
  }
}

}  // namespace perfbench
