// Differential tests: the reachability-indexed DependencyDag against the
// naive pre-fast-path implementation (tests/support/naive_oracles.hpp).
//
// The fast path changes four things that must not change observable
// behavior: each vertex carries a reachability window over the previous
// kReachWindow ids, filter_redundant decides candidate pairs inside a
// window from the union of the candidates' windows and runs a DFS only for
// pairs farther apart, is_ancestor answers from the window where it can,
// and WAR reader lists are compacted past a threshold. Edge sets and
// reachability must match the oracle exactly on every stream shape,
// including dependencies, fan-outs and probes that cross the window edge.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "dag/dependency_dag.hpp"
#include "tests/support/naive_oracles.hpp"

namespace grout::dag {
namespace {

AccessSummary rd(uvm::ArrayId a) { return AccessSummary{a, false}; }
AccessSummary wr(uvm::ArrayId a) { return AccessSummary{a, true}; }

/// Feed the same access stream to both implementations; assert identical
/// per-vertex ancestor sets (the DAG's full edge set) as they grow.
void expect_equivalent(const std::vector<std::vector<AccessSummary>>& stream) {
  DependencyDag fast;
  oracle::NaiveDag naive;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const VertexId fv = fast.add("ce" + std::to_string(i), stream[i]);
    const VertexId nv = naive.add(stream[i]);
    ASSERT_EQ(fv, nv);
    const auto anc = fast.ancestors(fv);
    ASSERT_EQ(std::vector<VertexId>(anc.begin(), anc.end()), naive.ancestors(nv))
        << "edge sets diverge at CE " << i;
  }
  EXPECT_EQ(fast.edge_count(), naive.edge_count());
  EXPECT_TRUE(fast.edges_respect_insertion_order());
}

/// Random mixed-access stream over `arrays` arrays.
std::vector<std::vector<AccessSummary>> random_stream(std::uint64_t seed, std::size_t vertices,
                                                      std::size_t arrays,
                                                      std::uint32_t write_pct) {
  Rng rng(seed);
  std::vector<std::vector<AccessSummary>> stream;
  stream.reserve(vertices);
  for (std::size_t i = 0; i < vertices; ++i) {
    std::set<uvm::ArrayId> used;
    std::vector<AccessSummary> accesses;
    const std::size_t n = 1 + rng.next_below(std::min<std::size_t>(arrays, 3));
    while (used.size() < n) {
      const auto a = static_cast<uvm::ArrayId>(rng.next_below(arrays));
      if (used.insert(a).second) {
        accesses.push_back(AccessSummary{a, rng.next_below(100) < write_pct});
      }
    }
    stream.push_back(std::move(accesses));
  }
  return stream;
}

class DagDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagDifferential, RandomMixedStream1k) {
  expect_equivalent(random_stream(GetParam(), 1200, 8, 40));
}

TEST_P(DagDifferential, ReadHeavyStream) {
  // Few writers, many readers: exercises reader-list compaction (the lists
  // pass the 64-entry threshold between writes) without changing edges.
  expect_equivalent(random_stream(GetParam() ^ 0xabcdef, 1500, 3, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagDifferential,
                         ::testing::Values(1u, 7u, 42u, 1234u, 98765u));

TEST(DagDifferential, LongChain) {
  // CE i reads CE i-1's output: maximal-depth ancestry, single kept edge.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  for (uvm::ArrayId i = 1; i < 1024; ++i) stream.push_back({rd(i - 1), wr(i)});
  expect_equivalent(stream);
}

TEST(DagDifferential, RollingChainOverFewArrays) {
  // Rewrites a small array window so WAW/WAR candidates are always
  // transitively dominated by the RAW chain.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  for (std::size_t i = 1; i < 2000; ++i) {
    const auto cur = static_cast<uvm::ArrayId>(i % 7);
    const auto prev = static_cast<uvm::ArrayId>((i - 1) % 7);
    stream.push_back({rd(prev), wr(cur)});
  }
  expect_equivalent(stream);
}

TEST(DagDifferential, WideFanOutPastCompactionThreshold) {
  // One writer, 300 independent readers (well past the 64-entry compaction
  // trigger), then a writer that must depend on every reader.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  for (int i = 0; i < 300; ++i) stream.push_back({rd(0)});
  stream.push_back({wr(0)});
  expect_equivalent(stream);

  DependencyDag dag;
  dag.add("init", {wr(0)});
  for (int i = 0; i < 300; ++i) dag.add("r" + std::to_string(i), {rd(0)});
  const VertexId barrier = dag.add("barrier", {wr(0)});
  EXPECT_EQ(dag.ancestors(barrier).size(), 300u);
}

TEST(DagDifferential, FanOutWithCrossEdgesCompacts) {
  // Readers of X that also chain among themselves through Y: compaction can
  // drop chained readers from X's WAR list, and the final writer's edge set
  // must still match the oracle's.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  stream.push_back({wr(1)});
  for (std::size_t i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      stream.push_back({rd(0), wr(1)});  // chained reader: dominated later
    } else {
      stream.push_back({rd(0), rd(1)});
    }
  }
  stream.push_back({wr(0)});
  expect_equivalent(stream);
}

TEST(DagDifferential, IsAncestorEquivalenceSweep) {
  const auto stream = random_stream(0x5eed, 600, 6, 35);
  DependencyDag fast;
  oracle::NaiveDag naive;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    fast.add("ce" + std::to_string(i), stream[i]);
    naive.add(stream[i]);
  }
  // Dense sweep over a sample grid plus every adjacent pair.
  Rng rng(0x15a);
  for (int probe = 0; probe < 20000; ++probe) {
    const VertexId a = rng.next_below(fast.size());
    const VertexId v = rng.next_below(fast.size());
    ASSERT_EQ(fast.is_ancestor(a, v), naive.is_ancestor(a, v))
        << "is_ancestor(" << a << ", " << v << ") diverges";
  }
  for (VertexId v = 1; v < fast.size(); ++v) {
    ASSERT_EQ(fast.is_ancestor(v - 1, v), naive.is_ancestor(v - 1, v));
  }
}

TEST(DagDifferential, ReaderListsStayBoundedOnRollingReads) {
  // A reader stream where each reader is dominated by the next (reads X,
  // writes a chain array): compaction keeps the WAR list near the minimum
  // instead of one entry per reader for the life of the array.
  DependencyDag dag;
  dag.add("init", {wr(0)});
  dag.add("chain0", {wr(1)});
  for (std::size_t i = 0; i < 5000; ++i) {
    dag.add("r" + std::to_string(i), {rd(0), rd(1), wr(1)});
  }
  // The final writer of X sees a compacted candidate list: exactly the
  // frontier chain tail plus the last writer, not 5000 readers.
  const VertexId barrier = dag.add("barrier", {wr(0)});
  EXPECT_EQ(dag.ancestors(barrier).size(), 1u);
}

constexpr VertexId kW = DependencyDag::kReachWindow;

TEST(DagDifferential, DependenciesFarBeyondTheWindow) {
  // Cold arrays written once up front, then read and rewritten thousands of
  // CEs later amid a random stream over hot arrays: the cold last writer is
  // a candidate many windows below the hot ones, so only the DFS fallback
  // can decide whether a hot candidate reaches it.
  Rng rng(0xfa7);
  std::vector<std::vector<AccessSummary>> stream;
  for (uvm::ArrayId cold = 0; cold < 4; ++cold) stream.push_back({wr(cold)});
  for (std::size_t i = 0; i < 6000; ++i) {
    const auto hot = static_cast<uvm::ArrayId>(10 + rng.next_below(8));
    const auto other = static_cast<uvm::ArrayId>(10 + (hot - 10 + 1 + rng.next_below(7)) % 8);
    if (i % 700 == 699) {
      const auto cold = static_cast<uvm::ArrayId>(rng.next_below(4));
      // Alternate: pull a cold array into the hot chain, or rewrite it
      // (WAW/WAR on a writer thousands of ids back).
      if (rng.next_below(2) == 0) {
        stream.push_back({rd(cold), rd(other), wr(hot)});
      } else {
        stream.push_back({rd(hot), wr(cold)});
      }
    } else {
      stream.push_back({rd(other), wr(hot)});
    }
  }
  // Finally every cold array is read together with one hot array.
  for (uvm::ArrayId cold = 0; cold < 4; ++cold) stream.push_back({rd(cold), rd(10), wr(11)});
  expect_equivalent(stream);
}

TEST(DagDifferential, IndependentFarWritersStayUndominated) {
  // Candidates more than a window apart with no path between them: the DFS
  // fallback must exhaust its search and keep every one.
  std::vector<std::vector<AccessSummary>> stream;
  for (uvm::ArrayId a = 0; a < 5; ++a) {
    stream.push_back({wr(a)});
    for (std::size_t i = 0; i < kW + 40; ++i) {
      stream.push_back({wr(static_cast<uvm::ArrayId>(100 + a))});
    }
  }
  stream.push_back({rd(0), rd(1), rd(2), rd(3), rd(4), rd(104)});
  expect_equivalent(stream);

  DependencyDag dag;
  for (const auto& accesses : stream) dag.add("ce", accesses);
  EXPECT_EQ(dag.ancestors(dag.size() - 1).size(), 6u);
}

TEST(DagDifferential, ReaderFanOutWiderThanTheWindow) {
  // One writer, then readers of X spread over more than a window of ids:
  // every third reader also chains through Y (so each is dominated by the
  // next chained reader, often from across the window edge) and filler CEs
  // on unrelated arrays stretch the id distances. The compactions and the
  // final writer's candidate list both straddle the window edge.
  for (const std::size_t readers : {kW - 1, kW, kW + 1, 3 * kW + 17}) {
    std::vector<std::vector<AccessSummary>> stream;
    stream.push_back({wr(0)});
    stream.push_back({wr(1)});
    for (std::size_t i = 0; i < readers; ++i) {
      if (i % 3 == 0) {
        stream.push_back({rd(0), rd(1), wr(1)});
      } else {
        stream.push_back({rd(0)});
      }
      if (i % 5 == 0) stream.push_back({wr(static_cast<uvm::ArrayId>(2 + i % 4))});
    }
    stream.push_back({wr(0)});
    expect_equivalent(stream);
  }
}

TEST(DagDifferential, UnchainedFanOutWiderThanTheWindow) {
  // 3W independent readers, then a writer: every reader stays a direct
  // ancestor, across several windows.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  for (std::size_t i = 0; i < 3 * kW; ++i) stream.push_back({rd(0)});
  stream.push_back({wr(0)});
  expect_equivalent(stream);
}

/// Serve-like stream: programs update Zipf-skewed keys among 24 shared
/// arrays and chain through their own private arrays.
std::vector<std::vector<AccessSummary>> serve_stream(std::uint64_t seed, std::size_t vertices) {
  constexpr std::size_t kShared = 24;
  constexpr std::size_t kPrograms = 48;
  Rng rng(seed);
  ZipfGenerator keys(kShared, 0.9);
  const auto priv = [](std::size_t program, std::size_t k) {
    return static_cast<uvm::ArrayId>(kShared + program * 3 + k);
  };
  std::vector<std::vector<AccessSummary>> stream;
  for (std::size_t p = 0; p < kPrograms; ++p) {
    for (std::size_t k = 0; k < 3; ++k) stream.push_back({wr(priv(p, k))});
  }
  for (uvm::ArrayId a = 0; a < kShared; ++a) stream.push_back({wr(a)});
  while (stream.size() < vertices) {
    const std::size_t p = rng.next_below(kPrograms);
    const std::size_t step = rng.next_below(3);
    std::vector<AccessSummary> accesses;
    const auto key = static_cast<uvm::ArrayId>(keys.next(rng));
    accesses.push_back(AccessSummary{key, rng.next_below(100) < 30});
    const auto key2 = static_cast<uvm::ArrayId>(keys.next(rng));
    if (key2 != key) accesses.push_back(rd(key2));
    accesses.push_back(rd(priv(p, step)));
    accesses.push_back(wr(priv(p, (step + 1) % 3)));
    stream.push_back(std::move(accesses));
  }
  return stream;
}

TEST_P(DagDifferential, ServeLikeZipfStream) {
  expect_equivalent(serve_stream(GetParam() ^ 0x5e7e, 6000));
}

TEST(DagDifferential, SparseArrayIdsTrackLikeDenseOnes) {
  // Ids far past the dense frontier table live in a side map until the
  // table grows over them; edges and last writers must not notice.
  const std::vector<uvm::ArrayId> ids{0, 5000, 4000, 6000, 3'000'000'000u, 5000, 6000};
  std::vector<std::vector<AccessSummary>> stream;
  for (const uvm::ArrayId id : ids) stream.push_back({wr(id)});
  for (const uvm::ArrayId id : ids) stream.push_back({rd(id), wr(1)});
  stream.push_back({wr(5000), wr(3'000'000'000u)});
  expect_equivalent(stream);

  DependencyDag dag;
  for (const auto& accesses : stream) dag.add("ce", accesses);
  EXPECT_EQ(dag.last_writer_of(5000), dag.size() - 1);
  EXPECT_EQ(dag.last_writer_of(3'000'000'000u), dag.size() - 1);
  EXPECT_EQ(dag.last_writer_of(6000), 6u);
  EXPECT_EQ(dag.last_writer_of(4999), kNoVertex);
}

TEST(DagDifferential, IsAncestorAtLongRange) {
  // Sparse-conflict stream (many arrays, few writes) so reachability is
  // neither trivially true nor trivially false far apart; probes at and
  // around the window edge and at long range.
  const auto stream = random_stream(0x10a6, 3000, 64, 25);
  DependencyDag fast;
  oracle::NaiveDag naive;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    fast.add("ce" + std::to_string(i), stream[i]);
    naive.add(stream[i]);
  }
  Rng rng(0x1a7);
  std::size_t reachable = 0;
  std::size_t unreachable = 0;
  for (int probe = 0; probe < 3000; ++probe) {
    const VertexId v = kW + 2 + rng.next_below(fast.size() - kW - 2);
    VertexId a = 0;
    switch (probe % 4) {
      case 0: a = v - kW; break;                       // last id inside the window
      case 1: a = v - kW - 1; break;                   // first id outside it
      case 2: a = v - kW + 1 + rng.next_below(2); break;
      default: a = rng.next_below(v - kW - 1); break;  // long range
    }
    const bool expected = naive.is_ancestor(a, v);
    ASSERT_EQ(fast.is_ancestor(a, v), expected) << "is_ancestor(" << a << ", " << v << ")";
    ++(expected ? reachable : unreachable);
  }
  // The probe set exercises both answers.
  EXPECT_GT(reachable, 100u);
  EXPECT_GT(unreachable, 100u);
}

}  // namespace
}  // namespace grout::dag
