// Sparse-matrix-formulation contractor (paper Sec. VI, Observations):
// "Much of the algorithm can be expressed through sparse matrix
// operations, which may lead to explicitly distributed memory
// implementations through the Combinatorial BLAS."
//
// Contraction is the triple product A' = S^T A S, where A is the
// weighted adjacency of the community graph and S the |V| x |V'|
// assignment matrix of the matching.  This contractor computes it with
// Gustavson's row-merge SpGEMM: each output row gathers the (at most
// two) input rows of its member communities through a dense sparse
// accumulator, relabels columns, and writes the deduplicated row.
//
// It produces bit-identical graphs to BucketSortContractor (tests assert
// this) and exists to demonstrate — and measure, in the ablation bench —
// the sparse-matrix path the paper sketches for future distributed
// implementations.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/bucket_sort_contractor.hpp"  // ContractionResult
#include "commdet/contract/relabel.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/graph/csr.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/prefix_sum.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
class SpGemmContractor {
 public:
  [[nodiscard]] ContractionResult<V> contract(const CommunityGraph<V>& g,
                                              const Matching<V>& m) const {
    auto rel = relabel_matched(g, m);
    const auto new_nv = static_cast<std::int64_t>(rel.new_nv);

    CommunityGraph<V> out;
    out.nv = rel.new_nv;
    out.volume = std::move(rel.volume);
    out.self_weight = std::move(rel.self_weight);
    out.total_weight = g.total_weight;

    // A as symmetric CSR (off-diagonal part; self weights live separately).
    const CsrGraph<V> a = to_csr(g);

    // Members of each output row: the leader and (optionally) its mate.
    std::vector<V> member0(static_cast<std::size_t>(new_nv), kNoVertex<V>);
    std::vector<V> member1(static_cast<std::size_t>(new_nv), kNoVertex<V>);
    parallel_for(static_cast<std::int64_t>(g.nv), [&](std::int64_t v) {
      const V mate = m.mate[static_cast<std::size_t>(v)];
      const auto row = static_cast<std::size_t>(rel.new_label[static_cast<std::size_t>(v)]);
      if (mate == kNoVertex<V> || mate > static_cast<V>(v))
        member0[row] = static_cast<V>(v);
      else
        member1[row] = static_cast<V>(v);
    });

    // Gustavson SpGEMM with a per-thread dense accumulator.  Two passes:
    // count per-row output (bucket-owned entries only), then fill.
    std::vector<EdgeId> row_len(static_cast<std::size_t>(new_nv), 0);
    const auto for_each_entry = [&](std::int64_t row, auto&& emit) {
      // Iterate the merged, relabeled row.
      for (const V src : {member0[static_cast<std::size_t>(row)],
                          member1[static_cast<std::size_t>(row)]}) {
        if (src == kNoVertex<V>) continue;
        const auto nbrs = a.neighbors_of(src);
        const auto wts = a.weights_of(src);
        for (std::size_t k = 0; k < nbrs.size(); ++k)
          emit(rel.new_label[static_cast<std::size_t>(nbrs[k])], wts[k]);
      }
    };

    // Pass 1: per-row unique off-diagonal, bucket-owned column counts,
    // and diagonal (intra-community) accumulation into self weights.
    // Each undirected edge appears in both endpoint rows of A, so the
    // diagonal gathers 2x the internal weight — halved on write.
    // Per-thread row scratch: stamp[col] == generation marks col as seen
    // in the current row; acc[col] is the row's weight to col (pass 2).
    struct RowScratch {
      std::vector<std::uint32_t> stamp;
      std::uint32_t generation = 0;
      std::vector<Weight> acc;
      std::vector<V> touched;
    };
    const auto make_scratch = [n = static_cast<std::size_t>(new_nv)](bool accumulate) {
      return RowScratch{std::vector<std::uint32_t>(n, 0), 0,
                        std::vector<Weight>(accumulate ? n : 0, 0), {}};
    };
    (void)parallel_for_each_thread(
        new_nv, dynamic_schedule(64), [&] { return make_scratch(false); },
        [&](RowScratch& t, std::int64_t row) {
          ++t.generation;
          EdgeId owned = 0;
          Weight diagonal = 0;
          for_each_entry(row, [&](V col, Weight w) {
            if (static_cast<std::int64_t>(col) == row) {
              diagonal += w;
              return;
            }
            const auto [f, s] = hashed_edge_order(static_cast<V>(row), col);
            if (f != static_cast<V>(row)) return;  // owned by the other row
            if (t.stamp[static_cast<std::size_t>(col)] != t.generation) {
              t.stamp[static_cast<std::size_t>(col)] = t.generation;
              ++owned;
            }
          });
          row_len[static_cast<std::size_t>(row)] = owned;
          if (diagonal > 0) out.self_weight[static_cast<std::size_t>(row)] += diagonal / 2;
        });

    std::vector<EdgeId> offsets(row_len.begin(), row_len.end());
    offsets.push_back(0);
    const EdgeId ne = exclusive_prefix_sum(std::span<EdgeId>(offsets));
    out.efirst.resize(static_cast<std::size_t>(ne));
    out.esecond.resize(static_cast<std::size_t>(ne));
    out.eweight.resize(static_cast<std::size_t>(ne));

    // Pass 2: accumulate weights per unique column and write the row,
    // sorted by column for the bucket-order invariant.
    (void)parallel_for_each_thread(
        new_nv, dynamic_schedule(64), [&] { return make_scratch(true); },
        [&](RowScratch& t, std::int64_t row) {
          ++t.generation;
          t.touched.clear();
          for_each_entry(row, [&](V col, Weight w) {
            if (static_cast<std::int64_t>(col) == row) return;
            const auto [f, s] = hashed_edge_order(static_cast<V>(row), col);
            if (f != static_cast<V>(row)) return;
            const auto ci = static_cast<std::size_t>(col);
            if (t.stamp[ci] != t.generation) {
              t.stamp[ci] = t.generation;
              t.acc[ci] = 0;
              t.touched.push_back(col);
            }
            t.acc[ci] += w;
          });
          std::sort(t.touched.begin(), t.touched.end());
          EdgeId at = offsets[static_cast<std::size_t>(row)];
          for (const V col : t.touched) {
            out.efirst[static_cast<std::size_t>(at)] = static_cast<V>(row);
            out.esecond[static_cast<std::size_t>(at)] = col;
            out.eweight[static_cast<std::size_t>(at)] = t.acc[static_cast<std::size_t>(col)];
            ++at;
          }
        });

    out.bucket_begin.assign(offsets.begin(), offsets.end() - 1);
    out.bucket_end.assign(static_cast<std::size_t>(new_nv), 0);
    parallel_for(new_nv, [&](std::int64_t v) {
      out.bucket_end[static_cast<std::size_t>(v)] =
          offsets[static_cast<std::size_t>(v)] + row_len[static_cast<std::size_t>(v)];
    });

    return {std::move(out), std::move(rel.new_label)};
  }
};

}  // namespace commdet
