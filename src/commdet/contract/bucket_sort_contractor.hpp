// The paper's improved graph contraction (Sec. IV-C).
//
// "After relabeling the vertex endpoints and re-ordering their storage
// according to the hashing, we roughly bucket sort by the first stored
// vertex in each edge.  If a stored edge is (i, j; w), we place (j; w)
// into a bucket associated with vertex i but leave i implicitly defined
// by the bucket.  Within each bucket, we sort by j and accumulate
// identical edges, shortening the bucket.  The buckets then are copied
// back out into the original graph's storage, filling in the i values."
//
// The matching is turned into dense labels (matching_labels) and the
// graph is contracted by the label-keyed kernel (contract_by_labels),
// which runs exactly those passes.  Where the paper synchronizes with
// one atomic fetch-and-add per edge, the kernel counts and scatters
// through chunk-private histograms (see label_contractor.hpp).  The
// buckets are scattered straight into the output graph's storage (a
// retired graph's arrays, when the caller recycles one), and "copied
// back out" is an in-place compaction there that closes the gaps the
// accumulation left, so a contraction holds only the graph it reads and
// the graph it writes.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "commdet/contract/label_contractor.hpp"
#include "commdet/contract/relabel.hpp"
#include "commdet/graph/community_graph.hpp"
#include "commdet/match/matching.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

template <VertexId V>
struct ContractionResult {
  CommunityGraph<V> graph;
  std::vector<V> new_label;  // old community -> new community
};

template <VertexId V>
class BucketSortContractor {
 public:
  [[nodiscard]] ContractionResult<V> contract(const CommunityGraph<V>& g,
                                              const Matching<V>& m) const {
    ContractionBuffers<V> fresh;
    return contract(g, m, fresh);
  }

  /// The same contraction, recycling `buffers` (see ContractionBuffers).
  [[nodiscard]] ContractionResult<V> contract(const CommunityGraph<V>& g, const Matching<V>& m,
                                              ContractionBuffers<V>& buffers) const {
    auto labels = matching_labels(m);
    auto graph = contract_by_labels(g, std::span<const V>(labels.label), labels.num_labels,
                                    buffers);
    if (obs::Counter* c = obs::counter("contract.edges_in")) c->add(g.num_edges());
    if (obs::Counter* c = obs::counter("contract.edges_out")) c->add(graph.num_edges());
    return {std::move(graph), std::move(labels.label)};
  }
};

}  // namespace commdet
