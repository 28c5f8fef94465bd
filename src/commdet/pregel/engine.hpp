// Mini-Pregel: a vertex-centric bulk-synchronous message-passing engine.
//
// The paper's Observations (Sec. VI): "Outside of the edge scoring, our
// algorithm relies on well-known primitives that exist for many
// execution models.  Much of the algorithm can be expressed through
// sparse matrix operations [...] or possibly cloud-based implementations
// through environments like Pregel [38].  The performance trade-offs for
// graph algorithms between these different environments and
// architectures remains poorly understood."
//
// This module builds that alternative execution model so the repository
// can measure those trade-offs: a faithful shared-memory Pregel —
// supersteps, per-vertex compute with an inbox of messages, vote-to-halt
// semantics, optional message combining — with OpenMP supplying the
// intra-superstep parallelism.  `programs.hpp` expresses connected
// components, hop distances, and label-propagation community detection
// on top of it; tests pin each against the library's native kernels.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "commdet/graph/csr.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/spinlock.hpp"
#include "commdet/util/types.hpp"

namespace commdet::pregel {

/// A vertex program, CRTP-free: any type with
///   using Value = ...; using Message = ...;
///   void init(V vertex, Value& value)                       - superstep 0 setup
///   void compute(Context&, V vertex, Value&, std::span<const Message>)
/// satisfies the engine.  Inside compute(), use the context to send
/// messages and vote to halt.  A vertex with an empty inbox after
/// superstep 0 is only re-activated by an incoming message.
template <typename P, typename V>
concept VertexProgram = requires { typename P::Value; typename P::Message; };

/// Optional message combiner: folds messages addressed to one vertex.
template <typename Message>
struct MinCombiner {
  void operator()(Message& into, const Message& msg) const {
    if (msg < into) into = msg;
  }
};

struct EngineStats {
  int supersteps = 0;
  std::int64_t messages_sent = 0;
};

struct EngineOptions {
  int max_supersteps = 1000;
};

/// The engine.  Value/message state lives in dense per-vertex arrays;
/// inboxes are double-buffered between supersteps (BSP semantics: a
/// message sent in superstep s is visible in superstep s+1 only).
template <VertexId V, typename Program>
  requires VertexProgram<Program, V>
class Engine {
 public:
  using Value = typename Program::Value;
  using Message = typename Program::Message;

  /// Takes the graph by value (move in to avoid the copy): the engine
  /// outlives many temporaries in practice, so owning the adjacency is
  /// the safe default.
  Engine(CsrGraph<V> graph, Program program)
      : graph_(std::move(graph)),
        program_(std::move(program)),
        nv_(static_cast<std::int64_t>(graph_.num_vertices())),
        values_(static_cast<std::size_t>(nv_)),
        inbox_(static_cast<std::size_t>(nv_)),
        outbox_(static_cast<std::size_t>(nv_)),
        locks_(static_cast<std::size_t>(nv_)),
        halted_(static_cast<std::size_t>(nv_), 0) {}

  /// Per-vertex interface handed to compute().
  class Context {
   public:
    Context(Engine& engine, V self, std::int64_t& sent) noexcept
        : engine_(engine), self_(self), sent_(sent) {}

    /// BSP send: delivered at the start of the next superstep.
    void send(V target, const Message& msg) {
      engine_.deliver(target, msg);
      ++sent_;
    }

    /// Send to every neighbor of this vertex.
    void send_to_neighbors(const Message& msg) {
      for (const V u : engine_.graph_.neighbors_of(self_)) send(u, msg);
    }

    /// Neighbors and incident weights of this vertex.
    [[nodiscard]] std::span<const V> neighbors() const {
      return engine_.graph_.neighbors_of(self_);
    }
    [[nodiscard]] std::span<const Weight> weights() const {
      return engine_.graph_.weights_of(self_);
    }

    /// Halt until re-activated by a message.
    void vote_to_halt() noexcept {
      engine_.halted_[static_cast<std::size_t>(self_)] = 1;
    }

    [[nodiscard]] int superstep() const noexcept { return engine_.superstep_; }

   private:
    Engine& engine_;
    V self_;
    std::int64_t& sent_;  // this thread's messages sent this superstep
  };

  /// Runs to global quiescence (all halted, no messages in flight) or
  /// the superstep cap.  Throws if the cap is hit.
  EngineStats run(const EngineOptions& opts = {}) {
    EngineStats stats;
    obs::ScopedSpan span("pregel.run");
    span.attr("nv", nv_);
    obs::Counter* c_messages = obs::counter("pregel.messages_sent");
    obs::Counter* c_supersteps = obs::counter("pregel.supersteps");
    obs::Gauge* g_active = obs::gauge("pregel.max_active_vertices");

    parallel_for(nv_, [&](std::int64_t v) {
      program_.init(static_cast<V>(v), values_[static_cast<std::size_t>(v)]);
    });

    for (superstep_ = 0; superstep_ < opts.max_supersteps; ++superstep_) {
      // A vertex is active in superstep 0, or when its inbox is nonempty.
      struct Tally { std::int64_t active = 0, sent = 0; };
      const auto compute = [&](Tally& tally, std::int64_t v) {
        const auto vi = static_cast<std::size_t>(v);
        const bool has_mail = !inbox_[vi].empty();
        if (superstep_ > 0 && halted_[vi] != 0 && !has_mail) return;
        halted_[vi] = 0;
        ++tally.active;
        Context ctx(*this, static_cast<V>(v), tally.sent);
        program_.compute(ctx, static_cast<V>(v), values_[vi],
                         std::span<const Message>(inbox_[vi]));
      };
      std::int64_t active = 0, sent = 0;
      for (const Tally& t : parallel_for_each_thread(nv_, dynamic_schedule(128),
                                                     [] { return Tally{}; }, compute)) {
        active += t.active;
        sent += t.sent;
      }
      stats.messages_sent += sent;
      ++stats.supersteps;
      if (c_messages != nullptr) c_messages->add(sent);
      if (c_supersteps != nullptr) c_supersteps->add(1);
      if (g_active != nullptr) g_active->record(active);

      // Swap inboxes: this superstep's sends become next superstep's mail.
      parallel_for(nv_, [&](std::int64_t v) {
        const auto vi = static_cast<std::size_t>(v);
        inbox_[vi].clear();
        inbox_[vi].swap(outbox_[vi]);
      });

      if (sent == 0) {
        // Quiescent iff everyone also halted.
        const std::int64_t still_active = parallel_count(nv_, [&](std::int64_t v) {
          return halted_[static_cast<std::size_t>(v)] == 0;
        });
        if (still_active == 0) {
          span.attr("supersteps", stats.supersteps);
          span.attr("messages_sent", stats.messages_sent);
          return stats;
        }
      }
    }
    // The tracing span closes during unwinding and is marked errored.
    throw std::runtime_error("pregel: superstep cap reached without quiescence");
  }

  [[nodiscard]] const std::vector<Value>& values() const noexcept { return values_; }

 private:
  void deliver(V target, const Message& msg) {
    const auto ti = static_cast<std::size_t>(target);
    SpinlockGuard guard(locks_, ti);
    if constexpr (requires(Message& a, const Message& b) { Program::combine(a, b); }) {
      // Program-supplied combiner: fold into the single pending message.
      if (outbox_[ti].empty()) {
        outbox_[ti].push_back(msg);
      } else {
        Program::combine(outbox_[ti].front(), msg);
      }
    } else {
      outbox_[ti].push_back(msg);
    }
  }

  CsrGraph<V> graph_;
  Program program_;
  std::int64_t nv_;
  std::vector<Value> values_;
  std::vector<std::vector<Message>> inbox_;
  std::vector<std::vector<Message>> outbox_;
  SpinlockTable locks_;
  std::vector<std::uint8_t> halted_;
  int superstep_ = 0;
};

}  // namespace commdet::pregel
