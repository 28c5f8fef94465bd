// OpenMP loop helpers, the only code that opens an OpenMP region: they
// decide in one place how threads split work and merge results.  A
// region is a bare `omp parallel` whose loops deal out their own
// iterations; none holds a barrier, `single`, `master` or task.
//
// Exception containment: an exception escaping a structured block inside
// an OpenMP region is undefined behavior — in practice std::terminate.
// Every helper therefore runs its body under an ExceptionCollector that
// captures the first exception raised on any thread, lets the remaining
// iterations drain as no-ops, and rethrows on the calling thread once
// the region has joined.
//
// TSan cannot see libgomp's fork and join, so under -fsanitize=thread an
// uninstrumented opener brackets each region with release/acquire pairs
// on two tokens local to the call (DESIGN.md design choice 11).
#pragma once

#include <omp.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__SANITIZE_THREAD__)
extern "C" void __tsan_acquire(void* addr);
extern "C" void __tsan_release(void* addr);
#define COMMDET_OPENS_REGION __attribute__((noinline, no_sanitize_thread))
#define COMMDET_TSAN(call) call
#else
#define COMMDET_OPENS_REGION
#define COMMDET_TSAN(call)
#endif

namespace commdet {

/// Captures the first exception thrown across an OpenMP region and
/// rethrows it after the join.  All members are safe to call
/// concurrently.
class ExceptionCollector {
 public:
  /// True once any thread captured an exception; iterations should
  /// fast-path out.  Relaxed: the rethrow (after the region join)
  /// provides the synchronization that matters.
  [[nodiscard]] bool armed() const noexcept { return armed_.load(std::memory_order_relaxed); }

  /// Runs `f()`.  Keeps the first exception thrown on any thread; a
  /// thrower sees armed() from then on.
  template <typename F>
  void run(F&& f) noexcept {
    try {
      f();
    } catch (...) {
      if (!claimed_.exchange(true, std::memory_order_acq_rel)) first_ = std::current_exception();
      armed_.store(true, std::memory_order_release);
    }
  }

  /// Rethrows the captured exception, if any.  Call after the parallel
  /// region has joined (never from inside it).
  void rethrow_if_armed() {
    if (armed_.load(std::memory_order_acquire) && first_) std::rethrow_exception(first_);
  }

 private:
  std::atomic<bool> claimed_{false};  // a thread won the right to write first_
  std::atomic<bool> armed_{false};    // an exception was captured
  std::exception_ptr first_;
};

/// Number of threads a parallel region would use right now.
[[nodiscard]] inline int parallel_threads() noexcept {
  return omp_get_max_threads();
}

/// How a loop deals out its iterations: static blocks (chunk 0), or
/// chunks of `dynamic_chunk` on demand for irregular per-item work.
struct Schedule {
  std::int64_t dynamic_chunk = 0;
};
inline constexpr Schedule kStaticSchedule{};
[[nodiscard]] constexpr Schedule dynamic_schedule(std::int64_t chunk) noexcept {
  return {chunk};
}

namespace detail {

/// Opens one region; each thread of the team runs `team(thread_id)`.
template <typename Team>
COMMDET_OPENS_REGION void parallel_region(Team&& team) {
  [[maybe_unused]] char fork = 0, join = 0;  // TSan tokens
  COMMDET_TSAN(__tsan_release(&fork));
#pragma omp parallel
  {
    COMMDET_TSAN(__tsan_acquire(&fork));
    team(omp_get_thread_num());
    COMMDET_TSAN(__tsan_release(&join));
  }
  COMMDET_TSAN(__tsan_acquire(&join));
}

/// A dynamic loop's next unclaimed iteration, alone on its cache line.
struct alignas(64) LoopCursor {
  std::atomic<std::int64_t> next{0};
};

/// This thread's share of [0, n): its schedule(static) block, or chunks
/// claimed from `cursor`.  No barrier: the region's join is the only one.
template <typename Body>
[[gnu::always_inline]] inline void team_for(std::int64_t n, Schedule schedule, LoopCursor& cursor,
                                            ExceptionCollector& errors, Body& body) {
  const std::int64_t chunk = schedule.dynamic_chunk;
  const auto claim = [&] { return cursor.next.fetch_add(chunk, std::memory_order_relaxed); };
  const std::int64_t t = omp_get_thread_num(), q = n / omp_get_num_threads();
  const std::int64_t r = n % omp_get_num_threads();
  std::int64_t begin = chunk > 0 ? claim() : t * q + std::min(t, r);
  std::int64_t end = chunk > 0 ? std::min(begin + chunk, n) : begin + q + (t < r ? 1 : 0);
  // One loop for both schedules, so the body is inlined once.
  while (begin < end) {
    for (std::int64_t i = begin; i < end && !errors.armed(); ++i) errors.run([&] { body(i); });
    if (chunk == 0) break;
    begin = claim();
    end = std::min(begin + chunk, n);
  }
}

}  // namespace detail

/// Parallel loop over [0, n), static-scheduled unless told otherwise.
/// `body(i)` must be safe to run concurrently for distinct i.  An
/// exception thrown by any body is rethrown on the calling thread;
/// iterations after the first failure may be skipped.  A single
/// iteration runs on the calling thread.
template <typename Body>
void parallel_for(std::int64_t n, Body&& body, Schedule schedule = kStaticSchedule) {
  if (n == 1) return static_cast<void>(body(std::int64_t{0}));
  detail::LoopCursor cursor;
  ExceptionCollector errors;
  detail::parallel_region([&](int) { detail::team_for(n, schedule, cursor, errors, body); });
  errors.rethrow_if_armed();
}

/// Dynamic-scheduled parallel loop for irregular per-item work (power-law
/// bucket sizes make static schedules imbalanced).
template <typename Body>
void parallel_for_dynamic(std::int64_t n, Body&& body, std::int64_t chunk = 64) {
  parallel_for(n, body, dynamic_schedule(chunk));
}

/// parallel_for whose threads each own a state built by `make()`
/// (scratch, partial sums) and run `body(state, i)`; a throw from either
/// is rethrown.  A thread stores its state once, after its last iteration,
/// so partial sums never share a cache line.  Returns them in thread order.
template <typename Make, typename Body>
[[nodiscard]] auto parallel_for_each_thread(std::int64_t n, Schedule schedule, Make&& make,
                                            Body&& body) {
  using State = std::remove_cvref_t<std::invoke_result_t<Make&>>;
  std::vector<std::optional<State>> slots(static_cast<std::size_t>(parallel_threads()));
  detail::LoopCursor cursor;
  ExceptionCollector errors;
  detail::parallel_region([&](int tid) {
    errors.run([&] {
      State state = make();  // a local, so partial sums can live in registers
      auto step = [&](std::int64_t i) { body(state, i); };
      detail::team_for(n, schedule, cursor, errors, step);
      slots[static_cast<std::size_t>(tid)] = std::move(state);
    });
  });
  errors.rethrow_if_armed();
  std::vector<State> states;
  states.reserve(slots.size());
  for (auto& s : slots)
    if (s) states.push_back(std::move(*s));
  return states;
}

/// Parallel sum-reduction of `body(i)` over [0, n), adding the threads'
/// partial sums in thread order.
template <typename T, typename Body>
[[nodiscard]] T parallel_sum(std::int64_t n, Body&& body) {
  T total{};
  const auto add = [&](T& acc, std::int64_t i) { acc += body(i); };
  for (const T& part : parallel_for_each_thread(n, kStaticSchedule, [] { return T{}; }, add))
    total += part;
  return total;
}

/// Parallel count of indices where `pred(i)` holds.
template <typename Pred>
[[nodiscard]] std::int64_t parallel_count(std::int64_t n, Pred&& pred) {
  return parallel_sum<std::int64_t>(n, [&](std::int64_t i) { return pred(i) ? 1 : 0; });
}

/// Parallel max-reduction of `body(i)` over [0, n); returns `init` when
/// n == 0.
template <typename T, typename Body>
[[nodiscard]] T parallel_max(std::int64_t n, T init, Body&& body) {
  T best = init;
  const auto keep_max = [&](T& acc, std::int64_t i) { acc = std::max<T>(acc, body(i)); };
  for (const T& part :
       parallel_for_each_thread(n, kStaticSchedule, [&] { return init; }, keep_max))
    best = std::max(best, part);
  return best;
}

/// Chunk-private accumulation into `out` (K arrays of one length): for
/// each of `nchunks` contiguous chunks [begin, end) of [0, n),
/// `body(begin, end, acc)` adds into `acc`, which is `out` for chunk 0
/// and zeroed private arrays for the rest; those are then added into
/// `out` slot by slot, in parallel.  One chunk runs on the calling thread.
template <typename T, std::size_t K, typename Body>
void parallel_chunk_add(std::int64_t n, std::int64_t nchunks, std::array<std::span<T>, K> out,
                        Body&& body) {
  if (nchunks <= 1) return body(std::int64_t{0}, n, out);
  const std::size_t slots = out[0].size();
  std::vector<std::array<std::vector<T>, K>> priv(static_cast<std::size_t>(nchunks - 1));
  parallel_for_dynamic(nchunks, [&](std::int64_t c) {
    auto acc = out;
    for (std::size_t k = 0; c > 0 && k < K; ++k) {
      auto& mine = priv[static_cast<std::size_t>(c - 1)][k];
      mine.assign(slots, T{});
      acc[k] = std::span<T>(mine);
    }
    body(n * c / nchunks, n * (c + 1) / nchunks, acc);
  }, /*chunk=*/1);
  parallel_for(static_cast<std::int64_t>(slots), [&](std::int64_t s) {
    const auto si = static_cast<std::size_t>(s);
    for (std::size_t k = 0; k < K; ++k)
      for (const auto& p : priv) out[k][si] += p[k][si];
  });
}

}  // namespace commdet
