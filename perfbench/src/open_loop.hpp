// Open-loop load generator.
//
// Requests go out on a fixed schedule whether or not earlier ones have
// been answered, as independent users send them; a slow service therefore
// builds a queue instead of receiving less load. Each request's latency is
// timed from when it was DUE, not from when the generator got round to
// sending it, so a generator stall is charged to every request it delayed
// (and reported separately as generator lateness).
//
// One generator thread (the caller) sends; one collector thread stamps
// responses as the client sees them.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <vector>

#include "data.hpp"
#include "query/request.hpp"

namespace perfbench {

struct OpenLoopSample {
  double due_s = 0;   ///< Scheduled send time, seconds after the offer began.
  double sent_s = 0;  ///< When the generator called submit.
  double seen_s = 0;  ///< When the collector saw the response.
  eidb::query::QueryResponse response;

  [[nodiscard]] double latency_s() const { return seen_s - due_s; }
  [[nodiscard]] double late_s() const { return sent_s - due_s; }
};

struct OpenLoopRun {
  std::vector<OpenLoopSample> samples;  ///< In schedule order.
  /// Requests sent but not yet answered when the last one was sent.
  std::size_t backlog_end = 0;
  /// Seconds from the offer's start to its last send.
  double offer_s = 0;
};

using Submit =
    std::function<std::future<eidb::query::QueryResponse>(std::size_t index)>;

/// Sends request i at due_s[i] (ascending) via `submit`, waits for every
/// response, and returns the stamped samples.
[[nodiscard]] OpenLoopRun run_open_loop(const std::vector<double>& due_s,
                                        const Submit& submit);

/// Poisson arrival times at `rate` per second over [0, seconds).
[[nodiscard]] std::vector<double> poisson_schedule(Rng& rng, double rate,
                                                   double seconds);

}  // namespace perfbench
