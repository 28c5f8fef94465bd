// Malformed-input corpus run against all four readers.  Every case must
// surface as a structured CommdetError (machine-readable code, phase
// kInput, locating detail) — never a silent misparse, never a crash.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/io/binary.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/io/matrix_market.hpp"
#include "commdet/io/metis.hpp"
#include "commdet/io/parallel_edge_list.hpp"
#include "commdet/robust/error.hpp"

namespace commdet {
namespace {

using V32 = std::int32_t;

class IoMalformedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("commdet_io_malformed_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static void write_file(const std::string& p, const std::string& content) {
    std::ofstream out(p, std::ios::binary);
    out << content;
  }

  /// Runs `read`, asserting it throws a CommdetError carrying `code` in
  /// phase kInput whose detail mentions `needle`.
  static void expect_structured(ErrorCode code, const std::string& needle,
                                const std::function<void()>& read) {
    try {
      read();
    } catch (const CommdetError& e) {
      EXPECT_EQ(e.code(), code) << e.what();
      EXPECT_EQ(e.phase(), Phase::kInput) << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw unstructured exception: " << e.what();
      return;
    }
    ADD_FAILURE() << "expected CommdetError, got success";
  }

  std::filesystem::path dir_;
};

// ---------------------------------------------------------------- text

TEST_F(IoMalformedTest, TextRejectsNanWeightWithLineNumber) {
  write_file(path("g.txt"), "0 1 2\n1 2 nan\n");
  expect_structured(ErrorCode::kBadWeight, ":2",
                    [&] { (void)read_edge_list_text<V32>(path("g.txt")); });
}

TEST_F(IoMalformedTest, TextRejectsInfWeight) {
  write_file(path("g.txt"), "0 1 inf\n");
  expect_structured(ErrorCode::kBadWeight, "non-finite",
                    [&] { (void)read_edge_list_text<V32>(path("g.txt")); });
}

TEST_F(IoMalformedTest, TextRejectsNegativeAndZeroWeights) {
  write_file(path("neg.txt"), "0 1 -3\n");
  expect_structured(ErrorCode::kBadWeight, "positive",
                    [&] { (void)read_edge_list_text<V32>(path("neg.txt")); });
  write_file(path("zero.txt"), "0 1 0\n");
  expect_structured(ErrorCode::kBadWeight, "positive",
                    [&] { (void)read_edge_list_text<V32>(path("zero.txt")); });
}

TEST_F(IoMalformedTest, TextRejectsFractionalWeight) {
  write_file(path("g.txt"), "0 1 2.5\n");
  expect_structured(ErrorCode::kBadWeight, "non-integer",
                    [&] { (void)read_edge_list_text<V32>(path("g.txt")); });
}

TEST_F(IoMalformedTest, TextRejectsOverflowingWeight) {
  write_file(path("g.txt"), "0 1 99999999999999999999\n");
  expect_structured(ErrorCode::kBadWeight, "overflows",
                    [&] { (void)read_edge_list_text<V32>(path("g.txt")); });
}

TEST_F(IoMalformedTest, TextRejectsGarbageTokens) {
  write_file(path("g.txt"), "0 1\nfoo bar\n");
  expect_structured(ErrorCode::kIoParse, ":2",
                    [&] { (void)read_edge_list_text<V32>(path("g.txt")); });
}

TEST_F(IoMalformedTest, TextRejectsNegativeIdAndOverflow) {
  write_file(path("neg.txt"), "0 -1\n");
  expect_structured(ErrorCode::kBadEndpoint, "negative",
                    [&] { (void)read_edge_list_text<V32>(path("neg.txt")); });
  write_file(path("big.txt"), "0 4294967296\n");
  expect_structured(ErrorCode::kIdOverflow, "overflows",
                    [&] { (void)read_edge_list_text<V32>(path("big.txt")); });
}

TEST_F(IoMalformedTest, TextMissingFileIsIoOpen) {
  expect_structured(ErrorCode::kIoOpen, "cannot open",
                    [&] { (void)read_edge_list_text<V32>(path("nope.txt")); });
}

// The parallel reader must reject exactly what the sequential one does.
TEST_F(IoMalformedTest, ParallelTextMatchesSequentialRejections) {
  const struct {
    const char* content;
    ErrorCode code;
  } corpus[] = {
      {"0 1 nan\n", ErrorCode::kBadWeight},
      {"0 1 -3\n", ErrorCode::kBadWeight},
      {"0 1 0\n", ErrorCode::kBadWeight},
      {"0 1 2.5\n", ErrorCode::kBadWeight},
      {"0 1 junk\n", ErrorCode::kIoParse},
      {"0 1 99999999999999999999\n", ErrorCode::kBadWeight},
      {"foo bar\n", ErrorCode::kIoParse},
      {"0 -1\n", ErrorCode::kBadEndpoint},
      {"0 4294967296\n", ErrorCode::kIdOverflow},
      // Ids past int64: the stream extraction fails, so both readers
      // reject the line as unparsable (no wrap-around, no overflow).
      {"0 18446744073709551617\n", ErrorCode::kIoParse},
      {"0 99999999999999999999\n", ErrorCode::kIoParse},
      {"0 9223372036854775808\n", ErrorCode::kIoParse},
  };
  int i = 0;
  for (const auto& c : corpus) {
    const auto p = path("c" + std::to_string(i++) + ".txt");
    write_file(p, c.content);
    expect_structured(c.code, "", [&] { (void)read_edge_list_text<V32>(p); });
    expect_structured(c.code, "byte",
                      [&] { (void)read_edge_list_text_parallel<V32>(p); });
  }
}

TEST_F(IoMalformedTest, ParallelTextReportsEarliestError) {
  // Two bad lines far apart: the reported offset must be the first one,
  // regardless of which thread hit its error first.
  std::string content;
  content += "0 1 nan\n";  // byte 0
  for (int i = 0; i < 20000; ++i) content += "1 2 3\n";
  content += "2 3 bogus\n";
  const auto p = path("two_bad.txt");
  write_file(p, content);
  expect_structured(ErrorCode::kBadWeight, "byte 4",
                    [&] { (void)read_edge_list_text_parallel<V32>(p); });
}

// -------------------------------------------------------------- binary

TEST_F(IoMalformedTest, BinaryBadMagicIsIoFormat) {
  write_file(path("junk.bin"), "JUNKJUNKJUNKJUNKJUNKJUNK");
  expect_structured(ErrorCode::kIoFormat, "magic",
                    [&] { (void)read_edge_list_binary<V32>(path("junk.bin")); });
}

TEST_F(IoMalformedTest, BinaryTruncatedPayloadIsIoFormat) {
  // The declared edge count is validated against the actual file size
  // before anything is allocated or parsed, so truncation is rejected
  // up front as a format error rather than discovered mid-read.
  const auto g = generate_erdos_renyi<V32>(50, 200, 3);
  write_edge_list_binary(g, path("g.bin"));
  const auto full = std::filesystem::file_size(path("g.bin"));
  std::filesystem::resize_file(path("g.bin"), full - 7);
  expect_structured(ErrorCode::kIoFormat, "file size",
                    [&] { (void)read_edge_list_binary<V32>(path("g.bin")); });
}

TEST_F(IoMalformedTest, BinaryOverstatedEdgeCountRejectedBeforeAllocation) {
  // A corrupt header claiming billions of edges must not drive a blind
  // multi-gigabyte allocation: the size check fires first.
  const auto g = generate_erdos_renyi<V32>(10, 20, 3);
  write_edge_list_binary(g, path("g.bin"));
  std::fstream f(path("g.bin"), std::ios::in | std::ios::out | std::ios::binary);
  const std::int64_t huge = std::int64_t{1} << 40;
  f.seekp(16);  // ne field: magic(8) + nv(8)
  f.write(reinterpret_cast<const char*>(&huge), sizeof huge);
  f.close();
  expect_structured(ErrorCode::kIoFormat, "file size",
                    [&] { (void)read_edge_list_binary<V32>(path("g.bin")); });
}

TEST_F(IoMalformedTest, BinaryBitFlipFailsChecksum) {
  const auto g = generate_erdos_renyi<V32>(50, 200, 3);
  write_edge_list_binary(g, path("g.bin"));
  // Flip one bit inside a weight (keeps endpoints valid so only the CRC
  // can catch it).
  std::fstream f(path("g.bin"), std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(24 + 2 * 8);  // first triple's weight
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(24 + 2 * 8);
  f.write(&byte, 1);
  f.close();
  expect_structured(ErrorCode::kIoFormat, "checksum",
                    [&] { (void)read_edge_list_binary<V32>(path("g.bin")); });
}

TEST_F(IoMalformedTest, BinaryLegacyV1StillReadable) {
  // Pre-trailer files carry the CDEL0001 magic and no CRC; they must
  // keep loading (with the size check, but without checksum coverage).
  const auto g = generate_erdos_renyi<V32>(30, 60, 7);
  std::ofstream out(path("v1.bin"), std::ios::binary);
  out.write("CDEL0001", 8);
  const std::int64_t nv = g.num_vertices, ne = g.num_edges();
  out.write(reinterpret_cast<const char*>(&nv), 8);
  out.write(reinterpret_cast<const char*>(&ne), 8);
  for (const auto& e : g.edges) {
    const std::int64_t t[3] = {e.u, e.v, e.w};
    out.write(reinterpret_cast<const char*>(t), sizeof t);
  }
  out.close();
  const auto back = read_edge_list_binary<V32>(path("v1.bin"));
  EXPECT_EQ(back.num_vertices, g.num_vertices);
  ASSERT_EQ(back.edges.size(), g.edges.size());
  for (std::size_t i = 0; i < back.edges.size(); ++i) {
    EXPECT_EQ(back.edges[i].u, g.edges[i].u);
    EXPECT_EQ(back.edges[i].v, g.edges[i].v);
    EXPECT_EQ(back.edges[i].w, g.edges[i].w);
  }
}

TEST_F(IoMalformedTest, BinaryTruncatedHeaderIsIoFormat) {
  const auto g = generate_erdos_renyi<V32>(10, 20, 3);
  write_edge_list_binary(g, path("g.bin"));
  std::filesystem::resize_file(path("g.bin"), 12);  // magic + half a count
  expect_structured(ErrorCode::kIoFormat, "header",
                    [&] { (void)read_edge_list_binary<V32>(path("g.bin")); });
}

TEST_F(IoMalformedTest, BinaryMissingFileIsIoOpen) {
  expect_structured(ErrorCode::kIoOpen, "cannot open",
                    [&] { (void)read_edge_list_binary<V32>(path("nope.bin")); });
}

// --------------------------------------------------------------- metis

TEST_F(IoMalformedTest, MetisEmptyFileIsIoFormat) {
  write_file(path("g.graph"), "");
  expect_structured(ErrorCode::kIoFormat, "header",
                    [&] { (void)read_metis<V32>(path("g.graph")); });
}

TEST_F(IoMalformedTest, MetisGarbageHeaderIsIoFormat) {
  write_file(path("g.graph"), "not a header\n");
  expect_structured(ErrorCode::kIoFormat, "header",
                    [&] { (void)read_metis<V32>(path("g.graph")); });
}

TEST_F(IoMalformedTest, MetisNeighborOutOfRangeIsBadEndpoint) {
  write_file(path("g.graph"), "2 1\n3\n1\n");
  expect_structured(ErrorCode::kBadEndpoint, "out of range",
                    [&] { (void)read_metis<V32>(path("g.graph")); });
}

TEST_F(IoMalformedTest, MetisTruncatedAdjacencyIsIoRead) {
  write_file(path("g.graph"), "3 2\n2\n");
  expect_structured(ErrorCode::kIoRead, "ends before vertex",
                    [&] { (void)read_metis<V32>(path("g.graph")); });
}

TEST_F(IoMalformedTest, MetisUnsupportedFormatFlags) {
  write_file(path("g.graph"), "3 3 011\n");
  expect_structured(ErrorCode::kIoFormat, "vertex weights",
                    [&] { (void)read_metis<V32>(path("g.graph")); });
  write_file(path("g2.graph"), "3 3 xyz\n");
  expect_structured(ErrorCode::kIoFormat, "fmt",
                    [&] { (void)read_metis<V32>(path("g2.graph")); });
}

// ------------------------------------------------------- matrix market

TEST_F(IoMalformedTest, MatrixMarketBadBannerIsIoFormat) {
  write_file(path("g.mtx"), "%%NotMatrixMarket matrix coordinate real general\n1 1 0\n");
  expect_structured(ErrorCode::kIoFormat, "banner",
                    [&] { (void)read_matrix_market<V32>(path("g.mtx")); });
}

TEST_F(IoMalformedTest, MatrixMarketUnsupportedField) {
  write_file(path("g.mtx"), "%%MatrixMarket matrix coordinate complex general\n1 1 0\n");
  expect_structured(ErrorCode::kIoFormat, "field",
                    [&] { (void)read_matrix_market<V32>(path("g.mtx")); });
}

TEST_F(IoMalformedTest, MatrixMarketNonSquareIsIoFormat) {
  write_file(path("g.mtx"), "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n");
  expect_structured(ErrorCode::kIoFormat, "square",
                    [&] { (void)read_matrix_market<V32>(path("g.mtx")); });
}

TEST_F(IoMalformedTest, MatrixMarketTruncatedIsIoRead) {
  write_file(path("g.mtx"), "%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n");
  expect_structured(ErrorCode::kIoRead, "truncated",
                    [&] { (void)read_matrix_market<V32>(path("g.mtx")); });
}

TEST_F(IoMalformedTest, MatrixMarketEntryOutOfRangeWithLineNumber) {
  write_file(path("g.mtx"), "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 9\n");
  expect_structured(ErrorCode::kBadEndpoint, ":3",
                    [&] { (void)read_matrix_market<V32>(path("g.mtx")); });
}

TEST_F(IoMalformedTest, MatrixMarketNanValueIsBadWeight) {
  write_file(path("g.mtx"), "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 nan\n");
  expect_structured(ErrorCode::kBadWeight, "non-finite",
                    [&] { (void)read_matrix_market<V32>(path("g.mtx")); });
}

TEST_F(IoMalformedTest, MatrixMarketMalformedSizeLineIsIoParse) {
  write_file(path("g.mtx"), "%%MatrixMarket matrix coordinate pattern general\npotato\n");
  expect_structured(ErrorCode::kIoParse, "size line",
                    [&] { (void)read_matrix_market<V32>(path("g.mtx")); });
}

// Well-formed inputs must still load after the hardening.
TEST_F(IoMalformedTest, ValidInputsStillParse) {
  write_file(path("ok.txt"), "# comment\n0 1 2\n1 2\n");
  const auto t = read_edge_list_text<V32>(path("ok.txt"));
  EXPECT_EQ(t.num_edges(), 2);
  EXPECT_EQ(t.edges[0].w, 2);
  const auto tp = read_edge_list_text_parallel<V32>(path("ok.txt"));
  EXPECT_EQ(tp.num_edges(), 2);

  write_file(path("ok.mtx"),
             "%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 2 3\n");
  const auto m = read_matrix_market<V32>(path("ok.mtx"));
  EXPECT_EQ(m.num_edges(), 1);
  EXPECT_EQ(m.edges[0].w, 3);

  write_file(path("ok.graph"), "2 1\n2\n1\n");
  const auto gm = read_metis<V32>(path("ok.graph"));
  EXPECT_EQ(static_cast<std::int64_t>(gm.num_vertices), 2);
}

}  // namespace
}  // namespace commdet
