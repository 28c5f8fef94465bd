// Quality metrics computed from scratch over the *original* graph and a
// community assignment.  Independent of the driver's incremental
// bookkeeping, so tests can cross-check the two.
#pragma once

#include <atomic>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "commdet/graph/community_graph.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

/// Aggregate quality of a partition.
struct PartitionQuality {
  double modularity = 0.0;
  double coverage = 0.0;            // fraction of weight inside communities
  double max_conductance = 0.0;     // worst community
  double mean_conductance = 0.0;
  std::int64_t num_communities = 0;
  std::int64_t largest_community = 0;  // vertex count
  std::int64_t smallest_community = 0;
};

/// Computes modularity/coverage/conductance of `labels` over g.  Labels
/// must be dense in [0, num_communities).
template <VertexId V>
[[nodiscard]] PartitionQuality evaluate_partition(const CommunityGraph<V>& g,
                                                  std::span<const V> labels) {
  std::int64_t num_comms = 0;
  for (const V l : labels) num_comms = std::max<std::int64_t>(num_comms, l + 1);

  std::vector<Weight> internal(static_cast<std::size_t>(num_comms), 0);
  std::vector<Weight> volume(static_cast<std::size_t>(num_comms), 0);
  std::vector<std::int64_t> size(static_cast<std::size_t>(num_comms), 0);

  const auto nv = static_cast<std::int64_t>(g.nv);
  const auto ne = static_cast<std::int64_t>(g.num_edges());
  const std::int64_t nchunks = parallel_threads();
  if (nv > 0 && num_comms * nchunks <= nv + ne) {
    // Few communities relative to the input: per-edge atomic adds would
    // serialize on the handful of hot community slots (all of a big
    // community's edges hit the same counter), so accumulate into
    // per-chunk histograms and reduce.  Weights are integers — the
    // result is bit-identical to the atomic path.  Each chunk of the
    // vertex range also takes the matching share of the edge range.
    const auto add = [&](std::int64_t vb, std::int64_t ve, const auto& acc) {
      const auto& [li, lv, ls] = acc;
      for (std::int64_t v = vb; v < ve; ++v) {
        const auto cc = static_cast<std::size_t>(labels[static_cast<std::size_t>(v)]);
        const Weight self = g.self_weight[static_cast<std::size_t>(v)];
        li[cc] += self;
        lv[cc] += 2 * self;
        ++ls[cc];
      }
      for (std::int64_t e = ne * vb / nv, ee = ne * ve / nv; e < ee; ++e) {
        const auto i = static_cast<std::size_t>(e);
        const auto ca =
            static_cast<std::size_t>(labels[static_cast<std::size_t>(g.efirst[i])]);
        const auto cb =
            static_cast<std::size_t>(labels[static_cast<std::size_t>(g.esecond[i])]);
        const Weight w = g.eweight[i];
        lv[ca] += w;
        lv[cb] += w;
        if (ca == cb) li[ca] += w;
      }
    };
    parallel_chunk_add(nv, nchunks,
                       std::array{std::span(internal), std::span(volume), std::span(size)}, add);
  } else {
    parallel_for(nv, [&](std::int64_t v) {
      const auto c = static_cast<std::size_t>(labels[static_cast<std::size_t>(v)]);
      const Weight self = g.self_weight[static_cast<std::size_t>(v)];
      std::atomic_ref<Weight>(internal[c]).fetch_add(self, std::memory_order_relaxed);
      std::atomic_ref<Weight>(volume[c]).fetch_add(2 * self, std::memory_order_relaxed);
      std::atomic_ref<std::int64_t>(size[c]).fetch_add(1, std::memory_order_relaxed);
    });
    parallel_for(g.num_edges(), [&](std::int64_t e) {
      const auto i = static_cast<std::size_t>(e);
      const auto ca = static_cast<std::size_t>(labels[static_cast<std::size_t>(g.efirst[i])]);
      const auto cb = static_cast<std::size_t>(labels[static_cast<std::size_t>(g.esecond[i])]);
      const Weight w = g.eweight[i];
      std::atomic_ref<Weight>(volume[ca]).fetch_add(w, std::memory_order_relaxed);
      std::atomic_ref<Weight>(volume[cb]).fetch_add(w, std::memory_order_relaxed);
      if (ca == cb)
        std::atomic_ref<Weight>(internal[ca]).fetch_add(w, std::memory_order_relaxed);
    });
  }

  PartitionQuality q;
  q.num_communities = num_comms;
  if (g.total_weight == 0 || num_comms == 0) {
    q.coverage = 1.0;
    if (num_comms > 0) {
      q.largest_community = *std::max_element(size.begin(), size.end());
      q.smallest_community = *std::min_element(size.begin(), size.end());
    }
    return q;
  }
  const auto w = static_cast<double>(g.total_weight);
  Weight inside = 0;
  double conductance_sum = 0.0;
  for (std::int64_t c = 0; c < num_comms; ++c) {
    const auto i = static_cast<std::size_t>(c);
    inside += internal[i];
    const double vol = static_cast<double>(volume[i]) / (2.0 * w);
    q.modularity += static_cast<double>(internal[i]) / w - vol * vol;
    const Weight cut = volume[i] - 2 * internal[i];
    const double denom =
        std::min(static_cast<double>(volume[i]), 2.0 * w - static_cast<double>(volume[i]));
    const double phi = (cut == 0 || denom <= 0.0) ? 0.0 : static_cast<double>(cut) / denom;
    conductance_sum += phi;
    q.max_conductance = std::max(q.max_conductance, phi);
  }
  q.coverage = static_cast<double>(inside) / w;
  q.mean_conductance = conductance_sum / static_cast<double>(num_comms);
  q.largest_community = *std::max_element(size.begin(), size.end());
  q.smallest_community = *std::min_element(size.begin(), size.end());
  return q;
}

/// Adjusted Rand index between two labelings of the same vertex set.
/// 1.0 = identical partitions, ~0 = random agreement.  Used to score
/// planted-partition recovery against ground truth.
template <typename LabelA, typename LabelB>
[[nodiscard]] double adjusted_rand_index(std::span<const LabelA> a,
                                         std::span<const LabelB> b) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  if (n != static_cast<std::int64_t>(b.size()) || n < 2) return 1.0;

  std::unordered_map<std::int64_t, std::int64_t> row_sum, col_sum;
  std::unordered_map<std::int64_t, std::int64_t> cell;  // key = row * 2^32 + col hash
  std::unordered_map<std::int64_t, std::int64_t> row_of, col_of;
  std::int64_t next_row = 0, next_col = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ra = static_cast<std::int64_t>(a[static_cast<std::size_t>(i)]);
    const auto rb = static_cast<std::int64_t>(b[static_cast<std::size_t>(i)]);
    auto [ita, newa] = row_of.try_emplace(ra, next_row);
    if (newa) ++next_row;
    auto [itb, newb] = col_of.try_emplace(rb, next_col);
    if (newb) ++next_col;
    ++row_sum[ita->second];
    ++col_sum[itb->second];
    ++cell[ita->second * (std::int64_t{1} << 32) + itb->second];
  }

  const auto choose2 = [](std::int64_t k) {
    return static_cast<double>(k) * static_cast<double>(k - 1) / 2.0;
  };
  double sum_cells = 0.0, sum_rows = 0.0, sum_cols = 0.0;
  for (const auto& [key, count] : cell) sum_cells += choose2(count);
  for (const auto& [key, count] : row_sum) sum_rows += choose2(count);
  for (const auto& [key, count] : col_sum) sum_cols += choose2(count);
  const double total_pairs = choose2(n);
  const double expected = sum_rows * sum_cols / total_pairs;
  const double max_index = 0.5 * (sum_rows + sum_cols);
  if (max_index == expected) return 1.0;
  return (sum_cells - expected) / (max_index - expected);
}

/// Normalized mutual information between two labelings (max-normalized,
/// natural log).  1.0 = identical partitions up to relabeling, ~0 =
/// independent.  Complementary to ARI: NMI is information-theoretic and
/// the standard community-recovery score in the LFR literature.
template <typename LabelA, typename LabelB>
[[nodiscard]] double normalized_mutual_information(std::span<const LabelA> a,
                                                   std::span<const LabelB> b) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  if (n != static_cast<std::int64_t>(b.size()) || n == 0) return 1.0;

  std::unordered_map<std::int64_t, std::int64_t> row, col;
  for (std::int64_t i = 0; i < n; ++i) {
    ++row[static_cast<std::int64_t>(a[static_cast<std::size_t>(i)])];
    ++col[static_cast<std::int64_t>(b[static_cast<std::size_t>(i)])];
  }
  const auto h = [n](const std::unordered_map<std::int64_t, std::int64_t>& counts) {
    double entropy = 0.0;
    for (const auto& [key, count] : counts) {
      const double p = static_cast<double>(count) / static_cast<double>(n);
      entropy -= p * std::log(p);
    }
    return entropy;
  };
  const double ha = h(row);
  const double hb = h(col);
  if (ha == 0.0 && hb == 0.0) return 1.0;  // both trivial partitions

  // Joint counts, keyed exactly (nested map avoids pair-key collisions).
  std::unordered_map<std::int64_t, std::unordered_map<std::int64_t, std::int64_t>> joint;
  for (std::int64_t i = 0; i < n; ++i)
    ++joint[static_cast<std::int64_t>(a[static_cast<std::size_t>(i)])]
           [static_cast<std::int64_t>(b[static_cast<std::size_t>(i)])];
  double mi = 0.0;
  for (const auto& [ra, cols] : joint) {
    for (const auto& [rb, count] : cols) {
      const double pxy = static_cast<double>(count) / static_cast<double>(n);
      const double px = static_cast<double>(row[ra]) / static_cast<double>(n);
      const double py = static_cast<double>(col[rb]) / static_cast<double>(n);
      mi += pxy * std::log(pxy / (px * py));
    }
  }
  const double denom = std::max(ha, hb);
  return denom > 0.0 ? mi / denom : 1.0;
}

}  // namespace commdet
