// Span-based phase tracing.
//
// A Trace collects nested, timestamped spans ("agglomerate" > "level" >
// "score"/"match"/"contract", ...) with the OpenMP thread count and
// arbitrary key/value attributes per span.  Instrumentation sites open
// spans through ScopedSpan, which reads one relaxed atomic to find the
// installed sink: when no Trace is installed the constructor stores a
// null pointer and every other member is a no-op, so the instrumented
// library costs nothing in ordinary runs (the acceptance bar:
// unmeasurable in bench_primitives).
//
// ScopedSpan is exception-correct by construction: its destructor is
// noexcept, runs during unwinding, and marks the span as errored when it
// closes with more uncaught exceptions in flight than at open — so a
// phase contained by the robustness layer's exception frames still
// leaves its (partial) duration in the trace.  This is the span-level
// counterpart of the ScopedTimer accumulate-on-throw guarantee.
//
// Span open/close serializes on a mutex inside the Trace.  Spans are
// opened at phase/level granularity (tens per run), never per edge, so
// the lock is cold; hot-loop counting belongs to the metrics registry.
#pragma once

#include <omp.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace commdet::obs {

/// Attribute values a span can carry.
using AttrValue = std::variant<std::int64_t, double, std::string>;

struct Attr {
  std::string key;
  AttrValue value;
};

/// One finished (or still-open) span.  Times are seconds since the
/// owning Trace's epoch on the steady clock; end < 0 means still open.
struct SpanRecord {
  std::uint32_t id = 0;      // 1-based; 0 is "no span"
  std::uint32_t parent = 0;  // 0 = top-level
  std::string name;
  double start_seconds = 0.0;
  double end_seconds = -1.0;
  int threads = 0;  // omp_get_max_threads() at open
  bool error = false;
  std::vector<Attr> attrs;

  [[nodiscard]] double duration_seconds() const noexcept {
    return end_seconds >= 0.0 ? end_seconds - start_seconds : 0.0;
  }
};

/// Collector of spans for one run.  Thread-safe: spans may be opened and
/// closed from any thread (the parallel reader traces from the calling
/// thread, but nothing forbids concurrent traces).
class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] double now_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Opens a span; returns its id for children to reference.
  std::uint32_t open(std::string_view name, std::uint32_t parent) {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord rec;
    rec.id = static_cast<std::uint32_t>(spans_.size() + 1);
    rec.parent = parent;
    rec.name.assign(name);
    rec.start_seconds = now_seconds();
    rec.threads = omp_get_max_threads();
    spans_.push_back(std::move(rec));
    return spans_.back().id;
  }

  void close(std::uint32_t id, bool error, std::vector<Attr> attrs) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0 || id > spans_.size()) return;
    auto& rec = spans_[id - 1];
    rec.end_seconds = now_seconds();
    rec.error = error;
    rec.attrs = std::move(attrs);
  }

  /// Snapshot of all spans recorded so far (open spans keep end < 0).
  [[nodiscard]] std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  using Clock = std::chrono::steady_clock;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  Clock::time_point epoch_;
};

namespace detail {

inline std::atomic<Trace*>& trace_slot() noexcept {
  static std::atomic<Trace*> slot{nullptr};
  return slot;
}

/// Innermost open span on this thread (parent for new spans).
inline std::uint32_t& current_span() noexcept {
  thread_local std::uint32_t id = 0;
  return id;
}

}  // namespace detail

/// The installed trace sink, or nullptr (tracing disabled).
[[nodiscard]] inline Trace* active_trace() noexcept {
  return detail::trace_slot().load(std::memory_order_relaxed);
}

/// Installs `t` as the process-wide sink (nullptr uninstalls).  Returns
/// the previous sink.  Callers own both traces' lifetimes.
inline Trace* install_trace(Trace* t) noexcept {
  return detail::trace_slot().exchange(t, std::memory_order_release);
}

/// RAII installation for the duration of a scope (CLI runs, tests).
class TraceSession {
 public:
  explicit TraceSession(Trace& t) noexcept : previous_(install_trace(&t)) {}
  ~TraceSession() { install_trace(previous_); }
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  Trace* previous_;
};

/// RAII span.  All members (including the destructor) are noexcept; when
/// no trace is installed every operation is a no-op after one relaxed
/// atomic load in the constructor.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name) noexcept
      : trace_(active_trace()), uncaught_at_open_(std::uncaught_exceptions()) {
    if (trace_ == nullptr) return;
    try {
      parent_before_ = detail::current_span();
      id_ = trace_->open(name, parent_before_);
      detail::current_span() = id_;
    } catch (...) {
      trace_ = nullptr;  // allocation failure: degrade to disabled
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() noexcept { close(); }

  /// True when a trace is recording this span (use to guard attribute
  /// computations that are not free, e.g. /proc reads).
  [[nodiscard]] bool active() const noexcept { return trace_ != nullptr; }

  void attr(std::string_view key, std::int64_t v) noexcept { add_attr(key, AttrValue(v)); }
  void attr(std::string_view key, int v) noexcept { attr(key, static_cast<std::int64_t>(v)); }
  void attr(std::string_view key, double v) noexcept { add_attr(key, AttrValue(v)); }
  void attr(std::string_view key, std::string_view v) noexcept {
    add_attr(key, AttrValue(std::string(v)));
  }

  /// Marks the span errored regardless of exception state (for failures
  /// contained before the span's scope unwinds).
  void set_error() noexcept { error_ = true; }

  /// Closes the span now (idempotent; the destructor calls it too).
  void close() noexcept {
    if (trace_ == nullptr) return;
    Trace* t = std::exchange(trace_, nullptr);
    const bool unwinding = std::uncaught_exceptions() > uncaught_at_open_;
    try {
      t->close(id_, error_ || unwinding, std::move(attrs_));
    } catch (...) {
      // Dropping a span beats terminating on a bad_alloc during unwind.
    }
    detail::current_span() = parent_before_;
  }

 private:
  void add_attr(std::string_view key, AttrValue v) noexcept {
    if (trace_ == nullptr) return;
    try {
      attrs_.push_back(Attr{std::string(key), std::move(v)});
    } catch (...) {
    }
  }

  Trace* trace_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_before_ = 0;
  int uncaught_at_open_;
  bool error_ = false;
  std::vector<Attr> attrs_;
};

/// Renders the trace as an indented tree with durations — the CLI's
/// --trace output and a debugging aid.
[[nodiscard]] inline std::string format_trace(const Trace& trace) {
  const auto spans = trace.spans();
  std::string out;
  // O(n^2) child scan: traces hold tens of spans, not thousands.
  auto render = [&](auto&& self, std::uint32_t parent, int depth) -> void {
    for (const auto& s : spans) {
      if (s.parent != parent) continue;
      out.append(static_cast<std::size_t>(depth) * 2, ' ');
      out += s.name;
      char buf[64];
      std::snprintf(buf, sizeof buf, "  %.6fs", s.duration_seconds());
      out += buf;
      if (s.threads > 0) {
        std::snprintf(buf, sizeof buf, "  threads=%d", s.threads);
        out += buf;
      }
      if (s.error) out += "  [error]";
      for (const auto& a : s.attrs) {
        out += "  ";
        out += a.key;
        out += '=';
        if (const auto* i = std::get_if<std::int64_t>(&a.value)) {
          out += std::to_string(*i);
        } else if (const auto* d = std::get_if<double>(&a.value)) {
          std::snprintf(buf, sizeof buf, "%.6g", *d);
          out += buf;
        } else {
          out += std::get<std::string>(a.value);
        }
      }
      out += '\n';
      self(self, s.id, depth + 1);
    }
  };
  render(render, 0, 0);
  return out;
}

}  // namespace commdet::obs
