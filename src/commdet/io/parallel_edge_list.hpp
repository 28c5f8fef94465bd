// Parallel whitespace edge-list parser.
//
// The paper's uk-2007-05 input has 3.3 billion edges; a getline-based
// reader is minutes of single-threaded parsing before the first parallel
// phase runs.  This reader slurps the file once, parses line-aligned
// chunks concurrently into per-chunk buffers, and copies them into
// place concurrently.
// Produces exactly the same EdgeList as read_edge_list_text (tests
// enforce equivalence), including '#'/'%' comment handling, optional
// weights, and strict weight validation: nan/inf, negative, zero,
// fractional, and overflowing weights are rejected, not misread.
//
// Failures throw CommdetError (a std::runtime_error) with a structured
// {code, phase, detail} record; data errors report a byte offset.  Each
// chunk keeps its first exception; the earliest one is rethrown on the
// calling thread after the first pass.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <exception>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "commdet/graph/edge_list.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/obs/metrics.hpp"
#include "commdet/obs/trace.hpp"
#include "commdet/robust/error.hpp"
#include "commdet/robust/fault_injection.hpp"
#include "commdet/util/parallel.hpp"
#include "commdet/util/types.hpp"

namespace commdet {

namespace detail {

/// Parses a decimal integer starting at `pos`; advances pos past it.
/// Returns false if no digits were found or the value does not fit in
/// an int64 (the sequential reader's stream extraction fails on both).
inline bool parse_int(const char* data, std::size_t size, std::size_t& pos,
                      std::int64_t& out) {
  while (pos < size && (data[pos] == ' ' || data[pos] == '\t')) ++pos;
  bool negative = false;
  if (pos < size && (data[pos] == '-' || data[pos] == '+')) {
    negative = data[pos] == '-';
    ++pos;
  }
  if (pos >= size || !std::isdigit(static_cast<unsigned char>(data[pos]))) return false;
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) + (negative ? 1 : 0);
  std::uint64_t magnitude = 0;
  while (pos < size && std::isdigit(static_cast<unsigned char>(data[pos]))) {
    const auto digit = static_cast<std::uint64_t>(data[pos] - '0');
    if (magnitude > (limit - digit) / 10) return false;
    magnitude = magnitude * 10 + digit;
    ++pos;
  }
  out = static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
  return true;
}

}  // namespace detail

/// Parallel equivalent of read_edge_list_text.  Throws CommdetError on
/// unreadable files or malformed lines (reported with a byte offset).
template <VertexId V>
[[nodiscard]] EdgeList<V> read_edge_list_text_parallel(const std::string& path) {
  COMMDET_FAULT_POINT(fault::kIoEdgeListText, Phase::kInput);
  obs::ScopedSpan span("io.read_edge_list_parallel");
  span.attr("path", path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw_error(ErrorCode::kIoOpen, Phase::kInput, "cannot open edge list: " + path);
  const auto size = static_cast<std::size_t>(in.tellg());
  std::string buffer(size, '\0');
  in.seekg(0);
  in.read(buffer.data(), static_cast<std::streamsize>(size));
  if (!in && size > 0) throw_error(ErrorCode::kIoRead, Phase::kInput, "read failed: " + path);
  const char* data = buffer.data();

  // Pass 1: each block parses the lines starting in it, up to its first error.
  const int nblocks = parallel_threads();
  struct Block {
    std::vector<RawEdge<V>> edges;
    std::int64_t max_id = -1;
    std::exception_ptr error;
  };
  std::vector<Block> blocks(static_cast<std::size_t>(nblocks));
  parallel_for(nblocks, [&](std::int64_t b) {
    const std::size_t chunk = size / static_cast<std::size_t>(nblocks) + 1;
    std::size_t begin = static_cast<std::size_t>(b) * chunk;
    const std::size_t end = std::min(begin + chunk, size);
    // Align to line boundaries: skip the partial line at the chunk head
    // (the previous chunk parses it) and run past `end` to finish the
    // last line started inside this chunk.
    if (begin > 0) {
      while (begin < size && data[begin - 1] != '\n') ++begin;
    }

    auto& block = blocks[static_cast<std::size_t>(b)];
    std::size_t pos = begin;
    try {
      while (pos < end) {
        // One line per iteration.
        if (data[pos] == '\n') {
          ++pos;
          continue;
        }
        if (data[pos] == '#' || data[pos] == '%' || data[pos] == '\r') {
          while (pos < size && data[pos] != '\n') ++pos;
          continue;
        }
        const std::size_t line_start = pos;
        std::int64_t u = 0, v = 0;
        Weight w = 1;
        if (!detail::parse_int(data, size, pos, u) || !detail::parse_int(data, size, pos, v))
          throw_error(ErrorCode::kIoParse, Phase::kInput,
                      path + ": malformed edge line near byte " + std::to_string(line_start));
        // Optional third token: a strictly validated weight.  Anything
        // present that is not a positive 64-bit integer is an error, in
        // lockstep with the sequential reader.
        while (pos < size && (data[pos] == ' ' || data[pos] == '\t')) ++pos;
        if (pos < size && data[pos] != '\n' && data[pos] != '\r') {
          const std::size_t tok_start = pos;
          while (pos < size && !std::isspace(static_cast<unsigned char>(data[pos]))) ++pos;
          const std::string tok(data + tok_start, pos - tok_start);
          w = detail::parse_weight_token(
              tok, path + " near byte " + std::to_string(tok_start));
        }
        while (pos < size && data[pos] != '\n') ++pos;  // ignore trailing junk/space
        if (u < 0 || v < 0)
          throw_error(ErrorCode::kBadEndpoint, Phase::kInput,
                      path + ": negative vertex id near byte " + std::to_string(line_start));
        if (!fits_vertex_id<V>(u) || !fits_vertex_id<V>(v))
          throw_error(ErrorCode::kIdOverflow, Phase::kInput,
                      path + ": vertex id overflows label type near byte " +
                          std::to_string(line_start));
        block.edges.push_back({static_cast<V>(u), static_cast<V>(v), w});
        block.max_id = std::max({block.max_id, u, v});
      }
    } catch (...) {
      block.error = std::current_exception();
    }
  });

  // Blocks are in byte order: the first failed block holds the earliest
  // error, whichever thread failed first.
  std::vector<std::size_t> offset{0};
  std::int64_t max_id = -1;
  for (const Block& block : blocks) {
    if (block.error) std::rethrow_exception(block.error);
    offset.push_back(offset.back() + block.edges.size());
    max_id = std::max(max_id, block.max_id);
  }
  const std::size_t total = offset.back();

  EdgeList<V> out;
  out.edges.resize(total);
  out.num_vertices = static_cast<V>(max_id + 1);
  parallel_for(nblocks, [&](std::int64_t b) {
    const auto& edges = blocks[static_cast<std::size_t>(b)].edges;
    const auto at = static_cast<std::ptrdiff_t>(offset[static_cast<std::size_t>(b)]);
    std::copy(edges.begin(), edges.end(), out.edges.begin() + at);
  });

  span.attr("bytes", static_cast<std::int64_t>(size));
  span.attr("edges", static_cast<std::int64_t>(total));
  span.attr("parser_threads", nblocks);
  if (obs::Counter* c = obs::counter("io.bytes_parsed"))
    c->add(static_cast<std::int64_t>(size));
  if (obs::Counter* c = obs::counter("io.edges_parsed"))
    c->add(static_cast<std::int64_t>(total));
  return out;
}

}  // namespace commdet
