// Dependency DAG over Computational Elements (Algorithm 1 of the paper).
//
// Both the Controller's Global DAG and each Worker's Local DAG are instances
// of this class. A new CE is checked against the frontier — the set of
// vertices that are still the last writer or an active reader of some array —
// and conflict edges (RAW, WAR, WAW) are added after filtering redundant
// ancestors (an ancestor reachable from another candidate ancestor is
// dropped, mirroring the paper's filterRedundant step).
//
// Storage is sized to the frontier, not the history:
//   * ancestors live in flat CSR arrays (one edge array plus per-vertex
//     offsets, appended in insertion order);
//   * every vertex carries a reachability window — a fixed bitset of its
//     ancestors among the previous kReachWindow ids, computed at insertion
//     as the union over its kept ancestors a of {a} and a's own window
//     shifted by the id distance. The window is exact: any ancestor of v
//     within the window is also within the window of the direct ancestor it
//     is reached through;
//   * filter_redundant decides every candidate pair closer than the window
//     with one bitmask per cluster of nearby candidates (the union of their
//     windows: O(candidates x window/64) word operations), and falls back to
//     an epoch-stamped DFS only for pairs farther apart, a DFS that stops
//     descending wherever a vertex's window already decides the answer.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "uvm/types.hpp"

namespace grout::dag {

using VertexId = std::uint64_t;
inline constexpr VertexId kNoVertex = ~VertexId{0};

/// One array access of a CE, as seen by the dependency tracker.
struct AccessSummary {
  uvm::ArrayId array{uvm::kInvalidArray};
  bool write{false};
};

class DependencyDag {
 public:
  struct Vertex {
    std::string label;
    bool done{false};
  };

  /// Ids covered by each vertex's reachability window.
  static constexpr VertexId kReachWindow = 256;

  /// Insert a CE; computes and returns its filtered direct ancestors.
  VertexId add(std::string label, std::vector<AccessSummary> accesses);

  /// Mark a CE's execution finished (used by schedulers, not for edges).
  void mark_done(VertexId v);

  [[nodiscard]] const Vertex& vertex(VertexId v) const {
    GROUT_REQUIRE(v < vertices_.size(), "unknown vertex");
    return vertices_[v];
  }
  [[nodiscard]] std::size_t size() const { return vertices_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edge_to_.size(); }

  /// The ancestors computed for vertex `v` at insertion time, ascending.
  [[nodiscard]] std::span<const VertexId> ancestors(VertexId v) const {
    GROUT_REQUIRE(v < vertices_.size(), "unknown vertex");
    return edges_of(v);
  }

  /// Last CE that wrote `array` (kNoVertex if no CE ever wrote it). Fault
  /// recovery replays this producer to rebuild an array whose only
  /// up-to-date copy died with a worker.
  [[nodiscard]] VertexId last_writer_of(uvm::ArrayId array) const {
    const ArrayTrack* track = find_track(array);
    return track == nullptr ? kNoVertex : track->last_writer;
  }

  /// Frontier: vertices still owning the last write of, or actively reading,
  /// at least one array. New CEs can only conflict with frontier members.
  [[nodiscard]] std::vector<VertexId> frontier() const;

  /// True if `ancestor` can reach `v` along dependency edges.
  [[nodiscard]] bool is_ancestor(VertexId ancestor, VertexId v) const;

  /// True if every edge respects insertion order (acyclicity witness).
  [[nodiscard]] bool edges_respect_insertion_order() const;

  /// Graphviz DOT rendering of the DAG (the paper's Fig. 5 pictures);
  /// `node_annotation(v)` may add a suffix per node label (e.g. the worker
  /// a CE was placed on) and may be null.
  [[nodiscard]] std::string to_dot(
      const std::function<std::string(VertexId)>& node_annotation = nullptr) const;

 private:
  static constexpr std::size_t kReachWords = kReachWindow / 64;
  static_assert(kReachWindow % 64 == 0, "the window is a whole number of words");
  /// Bit d-1 set <=> vertex (v - d) is an ancestor of v, for 1 <= d <= W.
  using ReachBits = std::array<std::uint64_t, kReachWords>;

  struct ArrayTrack {
    VertexId last_writer{kNoVertex};
    std::vector<VertexId> readers_since_write;
    /// Next readers_since_write size at which the list is compacted by
    /// dropping readers already reachable from a later reader (their WAR
    /// edge would be filtered as redundant anyway). Doubles after each
    /// compaction so the amortized cost per reader stays O(1).
    std::size_t reader_compact_at{kReaderCompactMin};
  };

  static constexpr std::size_t kReaderCompactMin = 64;
  /// Array ids are dense in practice (global and worker-local ids are both
  /// handed out sequentially); an id further than this past the dense
  /// table's end goes to the sparse map instead of growing the table.
  static constexpr std::size_t kDenseTrackSlack = 4096;

  [[nodiscard]] std::span<const VertexId> edges_of(VertexId v) const {
    const std::size_t begin = v == 0 ? 0 : edge_end_[v - 1];
    return {edge_to_.data() + begin, edge_end_[v] - begin};
  }
  /// True when `a` lies in v's window and the window says it reaches v.
  [[nodiscard]] bool window_has(VertexId v, VertexId a) const {
    const VertexId d = v - a - 1;
    return (reach_[v][d >> 6] >> (d & 63)) & 1;
  }

  [[nodiscard]] const ArrayTrack* find_track(uvm::ArrayId array) const;
  ArrayTrack& track_for(uvm::ArrayId array);

  /// Drop, in place, the candidates (sorted ascending) that are reachable
  /// from another candidate. Scratch buffers are members, so a call
  /// allocates nothing once they have grown to the frontier's width.
  void filter_redundant(std::vector<VertexId>& candidates) const;
  /// Window pass over candidates[begin, end), a cluster whose consecutive
  /// ids are at most one window apart: marks in dominated_ every member
  /// covered by another member's window.
  void mark_window_dominated(const std::vector<VertexId>& candidates, std::size_t begin,
                             std::size_t end) const;
  /// DFS pass for the candidates the windows could not decide (those with a
  /// candidate more than one window above them).
  void mark_far_dominated(const std::vector<VertexId>& candidates) const;

  std::vector<Vertex> vertices_;
  /// CSR ancestors: vertex v's are edge_to_[edge_end_[v-1], edge_end_[v]).
  std::vector<VertexId> edge_to_;
  std::vector<std::size_t> edge_end_;
  std::vector<ReachBits> reach_;
  /// Per-array frontier state, indexed by array id; ids far past the dense
  /// table live in sparse_tracks_.
  std::vector<ArrayTrack> tracks_;
  std::unordered_map<uvm::ArrayId, ArrayTrack> sparse_tracks_;
  std::vector<VertexId> candidates_;

  // Epoch-stamped scratch reused by is_ancestor/filter_redundant. Bumping
  // the epoch invalidates all marks at once, so queries never clear or
  // allocate; `mutable` because reachability queries are logically const.
  mutable std::vector<std::uint64_t> visited_epoch_;
  mutable std::vector<VertexId> dfs_stack_;
  mutable std::uint64_t epoch_{0};
  mutable std::vector<std::uint64_t> mask_;
  mutable std::vector<std::uint8_t> dominated_;
  mutable std::vector<VertexId> targets_;
};

}  // namespace grout::dag
