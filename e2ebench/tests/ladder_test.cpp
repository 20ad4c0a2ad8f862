// Checks the rule that turns a rate ladder into max_rate_rps.
#include <cstdio>
#include <vector>

#include "ladder.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

e2ebench::StepOutcome Step(double rate, double p99_us, bool valid = true,
                           bool backlog_ok = true, bool replies_ok = true) {
  e2ebench::StepOutcome step;
  step.rate = rate;
  step.p99_us = p99_us;
  step.generator_valid = valid;
  step.backlog_ok = backlog_ok;
  step.replies_ok = replies_ok;
  return step;
}

}  // namespace

int main() {
  using e2ebench::MaxPassingRate;
  const double limit = 1000.0;
  Expect(MaxPassingRate({}, limit) == 0.0, "an empty ladder gives 0");
  Expect(MaxPassingRate({Step(100, 50), Step(200, 80), Step(300, 900)}, limit) == 300,
         "every step passing gives the top rate");
  // A higher rate that passes after a failing one must not count: the
  // prototype saw p99 at 250k req/s better than at 200k.
  Expect(MaxPassingRate({Step(150e3, 300), Step(200e3, 1500), Step(250e3, 400)}, limit) ==
             150e3,
         "the walk stops at the first failing rate");
  Expect(MaxPassingRate({Step(100, 1500), Step(200, 10)}, limit) == 0.0,
         "a failing first step gives 0");
  Expect(MaxPassingRate({Step(100, 10), Step(200, 10, /*valid=*/false), Step(300, 10)},
                        limit) == 100,
         "a step where the generator fell behind is not a pass");
  Expect(MaxPassingRate({Step(100, 10), Step(200, 10, true, /*backlog_ok=*/false)},
                        limit) == 100,
         "a growing backlog fails the step");
  Expect(MaxPassingRate({Step(100, 10), Step(200, 10, true, true, /*replies_ok=*/false)},
                        limit) == 100,
         "a wrong or missing reply fails the step");
  Expect(MaxPassingRate({Step(100, limit)}, limit) == 100, "p99 equal to the limit passes");
  if (failures == 0) std::printf("ladder_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
