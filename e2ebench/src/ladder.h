// ladder.h — the rule that turns a rate ladder into max_rate_rps.
#pragma once

#include <vector>

namespace e2ebench {

struct StepOutcome {
  double rate = 0.0;             ///< offered requests per second
  double p99_us = 0.0;           ///< median of the step's window p99s
  bool backlog_ok = false;       ///< no growing backlog at the step's end
  bool generator_valid = false;  ///< the generator kept its schedule
  bool replies_ok = false;       ///< every reply arrived and was correct

  bool Passes(double p99_limit_us) const {
    return generator_valid && replies_ok && backlog_ok && p99_us <= p99_limit_us;
  }
};

/// The highest rate such that it and every lower rate pass.  `steps` are
/// in ascending rate order; the walk stops at the first step that does not
/// pass, so a later step that happens to pass cannot raise the result.
/// Returns 0 when the lowest step fails.
inline double MaxPassingRate(const std::vector<StepOutcome>& steps,
                             double p99_limit_us) {
  double best = 0.0;
  for (const StepOutcome& step : steps) {
    if (!step.Passes(p99_limit_us)) break;
    best = step.rate;
  }
  return best;
}

}  // namespace e2ebench
