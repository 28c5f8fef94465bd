// A deliberate data race inside a parallel_for body: every iteration
// writes one shared slot.  Built and registered only under
// COMMDET_SANITIZE=thread, where ThreadSanitizer must report it and fail
// the process; the test is marked WILL_FAIL.  It shows that the fork and
// join annotations in util/parallel.hpp hide no race inside a region.
#include <cstdint>
#include <cstdio>

#include "commdet/util/parallel.hpp"

int main() {
  if (commdet::parallel_threads() < 2) {
    std::puts("tsan_canary: needs at least 2 OpenMP threads; no race to report");
    return 0;
  }
  std::int64_t shared = 0;
  commdet::parallel_for(1 << 16, [&](std::int64_t i) { shared = i; });
  std::printf("tsan_canary: last write %lld\n", static_cast<long long>(shared));
  return 0;
}
