#include "dag/dependency_dag.hpp"

#include <algorithm>
#include <unordered_set>

namespace grout::dag {

namespace {

/// dst |= src << shift, over dst's `words` words (bits shifted past the end
/// are dropped). Bit i of a word array is bit i%64 of word i/64.
void or_shifted(std::uint64_t* dst, std::size_t words, const std::uint64_t* src,
                std::size_t src_words, std::size_t shift) {
  const std::size_t word_shift = shift >> 6;
  const unsigned bit_shift = shift & 63;
  for (std::size_t k = 0; k < src_words && word_shift + k < words; ++k) {
    const std::uint64_t s = src[k];
    if (s == 0) continue;
    dst[word_shift + k] |= s << bit_shift;
    if (bit_shift != 0 && word_shift + k + 1 < words) {
      dst[word_shift + k + 1] |= s >> (64 - bit_shift);
    }
  }
}

}  // namespace

VertexId DependencyDag::add(std::string label, std::vector<AccessSummary> accesses) {
  const VertexId v = vertices_.size();

  // Collect conflict ancestors from the per-array frontier state:
  //   read  X -> depends on last writer of X            (RAW)
  //   write X -> depends on last writer (WAW) and on every reader since (WAR)
  candidates_.clear();
  for (const AccessSummary& a : accesses) {
    GROUT_REQUIRE(a.array != uvm::kInvalidArray, "access to invalid array");
    const ArrayTrack* track = find_track(a.array);
    if (track == nullptr) continue;
    if (track->last_writer != kNoVertex) candidates_.push_back(track->last_writer);
    if (a.write) {
      candidates_.insert(candidates_.end(), track->readers_since_write.begin(),
                         track->readers_since_write.end());
    }
  }
  std::sort(candidates_.begin(), candidates_.end());
  candidates_.erase(std::unique(candidates_.begin(), candidates_.end()), candidates_.end());
  filter_redundant(candidates_);

  // R(v) = union over kept ancestors a of ({a} | R(a) shifted by v - a).
  ReachBits reach{};
  for (const VertexId a : candidates_) {
    const VertexId d = v - a;
    if (d > kReachWindow) continue;
    reach[(d - 1) >> 6] |= std::uint64_t{1} << ((d - 1) & 63);
    if (d < kReachWindow) or_shifted(reach.data(), kReachWords, reach_[a].data(), kReachWords, d);
  }
  edge_to_.insert(edge_to_.end(), candidates_.begin(), candidates_.end());
  edge_end_.push_back(edge_to_.size());
  reach_.push_back(reach);
  vertices_.push_back(Vertex{std::move(label), false});
  visited_epoch_.push_back(0);

  // Update the frontier state.
  for (const AccessSummary& a : accesses) {
    ArrayTrack& track = track_for(a.array);
    if (a.write) {
      track.last_writer = v;
      track.readers_since_write.clear();
      track.reader_compact_at = kReaderCompactMin;
    } else {
      track.readers_since_write.push_back(v);
      if (track.readers_since_write.size() >= track.reader_compact_at) {
        // Drop readers reachable from a later reader: a future writer's
        // WAR edge to them would be filtered as redundant anyway, so the
        // final edge set is unchanged. Keeps the list proportional to the
        // array's *concurrent* reader width instead of its full history.
        filter_redundant(track.readers_since_write);
        track.reader_compact_at =
            std::max(kReaderCompactMin, 2 * track.readers_since_write.size());
      }
    }
  }
  return v;
}

const DependencyDag::ArrayTrack* DependencyDag::find_track(uvm::ArrayId array) const {
  if (array < tracks_.size()) return &tracks_[array];
  if (sparse_tracks_.empty()) return nullptr;
  const auto it = sparse_tracks_.find(array);
  return it == sparse_tracks_.end() ? nullptr : &it->second;
}

DependencyDag::ArrayTrack& DependencyDag::track_for(uvm::ArrayId array) {
  if (array < tracks_.size()) return tracks_[array];
  if (array - tracks_.size() >= kDenseTrackSlack) return sparse_tracks_[array];
  tracks_.resize(std::size_t{array} + 1);
  // Sparse entries the grown table now covers move into it, so every id
  // lives in exactly one of the two places.
  for (auto it = sparse_tracks_.begin(); it != sparse_tracks_.end();) {
    if (it->first > array) {
      ++it;
      continue;
    }
    tracks_[it->first] = std::move(it->second);
    it = sparse_tracks_.erase(it);
  }
  return tracks_[array];
}

void DependencyDag::mark_done(VertexId v) {
  GROUT_REQUIRE(v < vertices_.size(), "unknown vertex");
  vertices_[v].done = true;
}

std::vector<VertexId> DependencyDag::frontier() const {
  std::unordered_set<VertexId> members;
  const auto collect = [&members](const ArrayTrack& track) {
    if (track.last_writer != kNoVertex) members.insert(track.last_writer);
    members.insert(track.readers_since_write.begin(), track.readers_since_write.end());
  };
  for (const ArrayTrack& track : tracks_) collect(track);
  for (const auto& [array, track] : sparse_tracks_) {
    (void)array;
    collect(track);
  }
  std::vector<VertexId> out(members.begin(), members.end());
  std::sort(out.begin(), out.end());
  return out;
}

bool DependencyDag::is_ancestor(VertexId ancestor, VertexId v) const {
  GROUT_REQUIRE(ancestor < vertices_.size() && v < vertices_.size(), "unknown vertex");
  if (ancestor >= v) return false;  // edges only point forward in insertion order
  if (v - ancestor <= kReachWindow) return window_has(v, ancestor);
  // DFS along direct ancestors over the epoch-stamped scratch, stopping at
  // the first vertex whose window covers `ancestor`: no per-call allocation,
  // and the search never enters the last window above `ancestor`.
  const std::uint64_t epoch = ++epoch_;
  dfs_stack_.clear();
  dfs_stack_.push_back(v);
  while (!dfs_stack_.empty()) {
    const VertexId cur = dfs_stack_.back();
    dfs_stack_.pop_back();
    for (const VertexId a : edges_of(cur)) {
      if (a < ancestor || visited_epoch_[a] == epoch) continue;
      visited_epoch_[a] = epoch;
      if (a - ancestor > kReachWindow) {
        dfs_stack_.push_back(a);
      } else if (a == ancestor || window_has(a, ancestor)) {
        return true;
      }
    }
  }
  return false;
}

bool DependencyDag::edges_respect_insertion_order() const {
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    for (const VertexId a : edges_of(v)) {
      if (a >= v) return false;
    }
  }
  return true;
}

std::string DependencyDag::to_dot(
    const std::function<std::string(VertexId)>& node_annotation) const {
  std::string dot = "digraph ces {\n  rankdir=TB;\n  node [shape=circle, fontsize=10];\n";
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    dot += "  n" + std::to_string(v) + " [label=\"" + vertices_[v].label;
    if (node_annotation) {
      const std::string extra = node_annotation(v);
      if (!extra.empty()) dot += "\\n" + extra;
    }
    dot += "\"];\n";
  }
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    for (const VertexId a : edges_of(v)) {
      dot += "  n" + std::to_string(a) + " -> n" + std::to_string(v) + ";\n";
    }
  }
  dot += "}\n";
  return dot;
}

void DependencyDag::filter_redundant(std::vector<VertexId>& candidates) const {
  const std::size_t n = candidates.size();
  if (n <= 1) return;
  // A candidate is dominated when another candidate reaches it (waiting on
  // the one that reaches it transitively waits on it). Edges point strictly
  // backward in insertion order, so only a larger id can dominate a smaller
  // one. Pairs at most one window apart are decided by the windows; a
  // cluster is a maximal run of candidates whose consecutive gaps fit in a
  // window, so every such pair lies inside one cluster.
  dominated_.assign(n, 0);
  for (std::size_t begin = 0; begin < n;) {
    std::size_t end = begin + 1;
    while (end < n && candidates[end] - candidates[end - 1] <= kReachWindow) ++end;
    if (end - begin > 1) mark_window_dominated(candidates, begin, end);
    begin = end;
  }
  if (candidates.back() - candidates.front() > kReachWindow) mark_far_dominated(candidates);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (dominated_[i] == 0) candidates[kept++] = candidates[i];
  }
  candidates.resize(kept);
}

void DependencyDag::mark_window_dominated(const std::vector<VertexId>& candidates,
                                          std::size_t begin, std::size_t end) const {
  // One bitmask over [candidates[begin], top], bit i <=> id top - i: the
  // union of every member's window, each shifted to its distance from top.
  const VertexId top = candidates[end - 1];
  const std::size_t words = static_cast<std::size_t>((top - candidates[begin]) >> 6) + 1;
  mask_.assign(words, 0);
  for (std::size_t i = begin; i < end; ++i) {
    or_shifted(mask_.data(), words, reach_[candidates[i]].data(), kReachWords,
               static_cast<std::size_t>(top - candidates[i]) + 1);
  }
  for (std::size_t i = begin; i + 1 < end; ++i) {
    const VertexId bit = top - candidates[i];
    if ((mask_[bit >> 6] >> (bit & 63)) & 1) dominated_[i] = 1;
  }
}

void DependencyDag::mark_far_dominated(const std::vector<VertexId>& candidates) const {
  // Targets: undominated candidates with some candidate more than a window
  // above them (the windows have already ruled out every closer pair).
  const VertexId top = candidates.back();
  targets_.clear();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (dominated_[i] == 0 && candidates[i] + kReachWindow < top) {
      targets_.push_back(candidates[i]);
    }
  }
  if (targets_.empty()) return;

  // Multi-source reverse DFS from the candidates that can reach a target
  // from beyond its window. A vertex is expanded by checking the targets in
  // its own window against its reach bits, then descending only while some
  // undecided target lies below that window.
  const std::uint64_t target = ++epoch_;
  const std::uint64_t seen = ++epoch_;
  for (const VertexId t : targets_) visited_epoch_[t] = target;
  std::size_t remaining = targets_.size();
  std::size_t low = 0;  // index of the smallest possibly-undecided target
  dfs_stack_.clear();
  // `x` is reachable from a candidate along >= 1 edge.
  const auto reached = [&](VertexId x) {
    if (visited_epoch_[x] == seen) return;
    if (visited_epoch_[x] == target) --remaining;
    visited_epoch_[x] = seen;
    dfs_stack_.push_back(x);
  };
  const auto expand = [&](VertexId u) {
    const VertexId window_floor = u > kReachWindow ? u - kReachWindow : 0;
    for (auto it = std::lower_bound(targets_.begin() + static_cast<std::ptrdiff_t>(low),
                                    targets_.end(), window_floor);
         it != targets_.end() && *it < u; ++it) {
      if (visited_epoch_[*it] == target && window_has(u, *it)) reached(*it);
    }
    while (low < targets_.size() && visited_epoch_[targets_[low]] == seen) ++low;
    if (low == targets_.size() || targets_[low] >= window_floor) return;
    const VertexId lo = targets_[low];
    for (const VertexId a : edges_of(u)) {
      if (a >= lo) reached(a);
    }
  };
  const VertexId source_floor = targets_.front() + kReachWindow;
  for (std::size_t i = candidates.size(); i-- > 0 && candidates[i] > source_floor;) {
    expand(candidates[i]);
  }
  while (remaining > 0 && !dfs_stack_.empty()) {
    const VertexId u = dfs_stack_.back();
    dfs_stack_.pop_back();
    expand(u);
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (visited_epoch_[candidates[i]] == seen) dominated_[i] = 1;
  }
}

}  // namespace grout::dag
