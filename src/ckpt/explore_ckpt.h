// File-level checkpointing for Explore / ParallelExplore: serializes
// mck::ExploreSnapshot to a checksummed checkpoint file and manages the
// last-good rotation. States and actions are serialized as raw images, so a
// model is checkpointable exactly when both are trivially copyable — true
// for every toy and screening model; anything fancier fails to compile
// rather than silently mis-serializing.
//
// Rotation protocol: each save renames the current `<name>.ckpt` to
// `<name>.ckpt.prev`, then writes the new snapshot via tmp + rename. Because
// renames are atomic, a crash at any point leaves at least one complete
// checksummed snapshot on disk; TryLoad falls back from a damaged `.ckpt`
// to `.ckpt.prev` and reports the fallback.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <type_traits>
#include <utility>

#include "ckpt/io.h"
#include "mck/explorer.h"

namespace cnv::ckpt {

template <typename M>
concept CheckpointableModel =
    std::is_trivially_copyable_v<typename M::State> &&
    std::is_trivially_copyable_v<typename M::Action>;

// v2: ample_states joined the snapshot so a resumed reduced run keeps its
// strict-ample expansion count. v3: the combined model's state hash packs
// each UE block into one word, so cached node hashes from v2 no longer
// match. Old snapshots are rejected (kBadVersion) rather than resumed with
// silently wrong figures.
inline constexpr std::uint32_t kExploreSnapshotVersion = 3;

template <typename M>
  requires CheckpointableModel<M>
std::string EncodeSnapshot(const mck::ExploreSnapshot<M>& snap) {
  BinaryWriter w;
  w.U64(snap.nodes.size());
  for (const auto& n : snap.nodes) {
    w.Pod(n.state);
    w.U64(n.hash);
    w.U64(n.parent);
    w.Pod(n.via);
  }
  w.PodVector(snap.frontier);
  w.U64(snap.depth);
  w.U64(snap.transitions);
  w.U64(snap.frontier_peak);
  w.U64(snap.max_depth_reached);
  w.U64(snap.waves);
  w.U64(snap.ample_states);
  w.U64(snap.violations.size());
  for (const auto& v : snap.violations) {
    w.Str(v.property);
    w.PodVector(v.trace);
    w.Pod(v.state);
  }
  return w.Take();
}

// Rejects a payload that is truncated, has trailing bytes, or fails the
// structural checks below — including any node whose cached hash is not
// HashValue(state), so a stale or foreign snapshot can never route states
// to the wrong shard or corrupt the rebuilt visited tables.
template <typename M>
  requires CheckpointableModel<M>
bool DecodeSnapshot(std::string_view payload, mck::ExploreSnapshot<M>* snap) {
  using State = typename M::State;
  using Action = typename M::Action;
  BinaryReader r(payload);
  const std::uint64_t n_nodes = r.U64();
  if (n_nodes > payload.size()) return false;  // cheap sanity bound
  snap->nodes.clear();
  snap->nodes.reserve(static_cast<std::size_t>(n_nodes));
  for (std::uint64_t i = 0; i < n_nodes && r.ok(); ++i) {
    typename mck::ExploreSnapshot<M>::Node node;
    node.state = r.Pod<State>();
    node.hash = r.U64();
    node.parent = r.U64();
    node.via = r.Pod<Action>();
    if (r.ok() &&
        node.hash != static_cast<std::uint64_t>(HashValue(node.state))) {
      return false;
    }
    snap->nodes.push_back(node);
  }
  snap->frontier = r.PodVector<std::uint64_t>();
  snap->depth = r.U64();
  snap->transitions = r.U64();
  snap->frontier_peak = r.U64();
  snap->max_depth_reached = r.U64();
  snap->waves = r.U64();
  snap->ample_states = r.U64();
  const std::uint64_t n_viol = r.U64();
  if (n_viol > payload.size()) return false;
  snap->violations.clear();
  for (std::uint64_t i = 0; i < n_viol && r.ok(); ++i) {
    mck::Violation<M> v;
    v.property = r.Str();
    v.trace = r.PodVector<Action>();
    v.state = r.Pod<State>();
    snap->violations.push_back(std::move(v));
  }
  if (!r.AtEnd()) return false;
  // Structural sanity: every parent and frontier entry must point at an
  // earlier / existing rank, or resume would index out of bounds.
  for (std::uint64_t i = 0; i < snap->nodes.size(); ++i) {
    const std::uint64_t p = snap->nodes[static_cast<std::size_t>(i)].parent;
    if (p != mck::kNoParentRank && p >= i) return false;
  }
  for (const std::uint64_t f : snap->frontier) {
    if (f >= snap->nodes.size()) return false;
  }
  return true;
}

// Outcome of a resume attempt.
struct ResumeStatus {
  bool loaded = false;       // a usable snapshot was found
  bool fell_back = false;    // the primary file was damaged; .prev was used
  LoadStatus primary = LoadStatus::kMissing;   // what happened to <name>.ckpt
  LoadStatus fallback = LoadStatus::kMissing;  // ... and to <name>.ckpt.prev
};

// Cadence + rotation driver around mck::SnapshotHooks. Typical use:
//
//   ckpt::ExploreCheckpointer<Model> cp(dir, "s3", digest, every_states);
//   mck::ExploreSnapshot<Model> snap;
//   const auto resume = cp.TryLoad(&snap);          // when --resume
//   auto* hooks = cp.hooks(resume.loaded ? &snap : nullptr);
//   auto result = mck::ParallelExplore(m, props, opt, exec, hooks);
template <typename M>
  requires CheckpointableModel<M>
class ExploreCheckpointer {
 public:
  ExploreCheckpointer(std::string dir, std::string name,
                      std::uint64_t config_digest,
                      std::uint64_t every_states = 0,
                      std::uint64_t every_waves = 0)
      : path_((std::filesystem::path(dir) / (name + ".ckpt")).string()),
        digest_(config_digest) {
    hooks_.every_states = every_states;
    hooks_.every_waves = every_waves;
    hooks_.on_snapshot = [this](const mck::ExploreSnapshot<M>& snap) {
      Save(snap);
    };
  }

  const std::string& path() const { return path_; }
  std::string prev_path() const { return path_ + ".prev"; }
  std::uint64_t snapshots_written() const { return written_; }
  std::uint64_t save_failures() const { return save_failures_; }

  // Writes one snapshot with last-good rotation.
  void Save(const mck::ExploreSnapshot<M>& snap) {
    std::error_code ec;
    if (std::filesystem::exists(path_, ec)) {
      std::filesystem::rename(path_, prev_path(), ec);  // best effort
    }
    if (WriteCheckpointFile(path_, PayloadType::kExploreSnapshot,
                            kExploreSnapshotVersion, digest_,
                            EncodeSnapshot<M>(snap))) {
      ++written_;
    } else {
      ++save_failures_;
    }
  }

  // Loads the newest usable snapshot, falling back to .prev when the
  // primary is damaged. A payload that passes the checksum but fails
  // structural decoding counts as damaged too.
  ResumeStatus TryLoad(mck::ExploreSnapshot<M>* snap) const {
    ResumeStatus rs;
    std::string payload;
    rs.primary = ReadCheckpointFile(path_, PayloadType::kExploreSnapshot,
                                    kExploreSnapshotVersion, digest_,
                                    &payload);
    if (rs.primary == LoadStatus::kOk && DecodeSnapshot<M>(payload, snap)) {
      rs.loaded = true;
      return rs;
    }
    if (rs.primary == LoadStatus::kOk) rs.primary = LoadStatus::kChecksumMismatch;
    rs.fallback = ReadCheckpointFile(prev_path(),
                                     PayloadType::kExploreSnapshot,
                                     kExploreSnapshotVersion, digest_,
                                     &payload);
    if (rs.fallback == LoadStatus::kOk && DecodeSnapshot<M>(payload, snap)) {
      rs.loaded = true;
      rs.fell_back = true;
      return rs;
    }
    if (rs.fallback == LoadStatus::kOk) {
      rs.fallback = LoadStatus::kChecksumMismatch;
    }
    return rs;
  }

  // Hooks wired to this checkpointer; `resume` may be null for a fresh run.
  const mck::SnapshotHooks<M>* hooks(const mck::ExploreSnapshot<M>* resume) {
    hooks_.resume = resume;
    return &hooks_;
  }

 private:
  std::string path_;
  std::uint64_t digest_;
  mck::SnapshotHooks<M> hooks_;
  std::uint64_t written_ = 0;
  std::uint64_t save_failures_ = 0;
};

}  // namespace cnv::ckpt
