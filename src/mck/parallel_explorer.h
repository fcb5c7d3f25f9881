// The exploration engine: BFS in depth-synchronized waves (wave semantics in
// mck/explorer.h) over a sharded visited table, on the shared worker pool
// (par/pool.h). Serial exploration is jobs = 1: `Explore` below is
// ParallelExplore at one job over a single shard, and the jobs == 1 path is
// a direct wave loop with no staging. The design goal is *determinism
// first*: at any worker count the result is byte-identical to jobs = 1 —
// same states_visited / transitions / depth / truncation, and per property
// the same minimal (depth, canonical-trace) counterexample.
//
// How a wave at depth d runs on more than one job:
//
//   1. EXPAND   Workers own contiguous slices of the depth-d frontier (the
//               slice split depends only on frontier size and job count).
//               Each successor state is hashed once; states already in the
//               visited table (frozen during this phase, so probes are
//               lock-free) are discarded, the rest are routed by the *top*
//               hash bits to one of 2^shard_bits mutex-striped shards,
//               tagged with a canonical key: (frontier position of the
//               parent, action index). Keys are globally unique and ordered
//               exactly like serial expansion.
//   2. INSERT   Whole shards are assigned to workers, so shard state needs
//               no locking here. Each shard sorts its candidates by key and
//               interns them in that order — first-insert-wins resolves
//               same-wave duplicates identically to serial BFS regardless of
//               which worker routed them. New states are checked against the
//               properties; hits are recorded as (key, property) candidates,
//               not yet committed.
//   3. MERGE    Single-threaded. New states from all shards are ordered by
//               key — reproducing serial discovery order — and accepted up
//               to the max_states cap; violation candidates at or below the
//               cap cutoff are committed in (key, property) order, which
//               makes the chosen counterexample the minimal one and the
//               violations vector identical to serial. The accepted states
//               form the next frontier.
//
// Wall-clock figures (worker busy time, utilization) are telemetry only and
// never feed deterministic outputs.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/executor.h"
#include "mck/explorer.h"
#include "mck/intern_table.h"
#include "mck/por.h"
#include "mck/segmented_arena.h"

namespace cnv::mck {

struct ParallelExploreOptions {
  // Search bounds, property handling and reduction switches.
  ExploreOptions base;
  // Worker count: 0 = hardware concurrency, 1 = inline (no threads).
  int jobs = 0;
  // log2 of the visited-table shard count. Shards are selected by the top
  // hash bits so per-shard tables keep full low-bit entropy.
  int shard_bits = 6;
  // Graceful drain, checked at wave boundaries: once *cancel becomes true
  // the current wave finishes (its merge stays deterministic) and the
  // result returns with stats.truncated unset and `cancelled` set. The
  // atomic shape (rather than ckpt::CancelToken) keeps mck free of a ckpt
  // *runtime-object* dependency; runners pass &token->flag().
  const std::atomic<bool>* cancel = nullptr;
};

struct ParallelExploreStats {
  // Deterministic: identical at any job count.
  std::uint64_t waves = 0;          // expanded frontier waves
  std::uint32_t shards = 1;
  std::uint64_t largest_shard = 0;  // states in the fullest shard
  // Execution-shape figures; wall-clock based, telemetry only.
  int jobs = 1;
  double worker_busy_seconds = 0;  // summed across workers
  double utilization = 0;          // busy / (jobs * elapsed_wall)
};

// Canonical deterministic view of ParallelExploreStats — the counterpart of
// mck::DeterministicView(ExploreStats); execution-shape fields (jobs, busy
// time, utilization) are excluded by construction.
struct ParallelStatsView {
  std::uint64_t waves = 0;
  std::uint32_t shards = 1;
  std::uint64_t largest_shard = 0;
  bool operator==(const ParallelStatsView&) const = default;
};

inline ParallelStatsView DeterministicView(const ParallelExploreStats& s) {
  return {s.waves, s.shards, s.largest_shard};
}

inline std::string ToString(const ParallelStatsView& v) {
  return "{waves=" + std::to_string(v.waves) +
         " shards=" + std::to_string(v.shards) +
         " largest_shard=" + std::to_string(v.largest_shard) + "}";
}

inline std::ostream& operator<<(std::ostream& os, const ParallelStatsView& v) {
  return os << ToString(v);
}

namespace internal {

template <typename M>
bool IsFinal(const M& model, const typename M::State& s) {
  if constexpr (requires { { model.is_final(s) } -> std::convertible_to<bool>; }) {
    return model.is_final(s);
  } else {
    (void)model;
    (void)s;
    return false;
  }
}

// Wave-boundary snapshot cadence (SnapshotHooks::every_states/every_waves).
struct SnapshotCadence {
  std::uint64_t every_states = 0;
  std::uint64_t every_waves = 0;
  std::uint64_t states_at_last = 0;
  std::uint64_t waves_since = 0;

  bool Due(std::uint64_t states_now) {
    ++waves_since;
    const bool due =
        (every_states == 0 && every_waves == 0) ||
        (every_states != 0 && states_now - states_at_last >= every_states) ||
        (every_waves != 0 && waves_since >= every_waves);
    if (due) {
      states_at_last = states_now;
      waves_since = 0;
    }
    return due;
  }
};

// Global state ids pack (shard, local index); kNoParent marks the root.
inline constexpr std::uint64_t kLocalMask = (1ull << 48) - 1;
inline constexpr std::uint64_t kNoParent = ~0ull;

template <typename Action>
struct NodeMeta {
  std::uint64_t parent = kNoParent;
  Action via{};
};

// Canonical candidate key: (frontier position of the parent, action index
// + 1). Globally unique within a wave and ordered exactly like serial
// expansion; deadlock candidates use action index 0 because serial checks
// deadlock when it starts expanding the parent.
using Key = std::pair<std::uint64_t, std::uint32_t>;

// Candidate record staged between the expand and insert phases.
template <typename State, typename Action>
struct Candidate {
  State state;
  std::uint64_t hash = 0;
  Key key{};
  std::uint64_t parent = kNoParent;
  Action via{};
};

// A property violation found at insert, committed (or not) at merge.
struct PropHit {
  Key key{};
  std::uint32_t property = 0;
  std::uint64_t id = 0;
};

// One flush per (worker, wave): candidates[start, start+count) staged by
// `worker`. A worker's candidates are produced in key order and worker
// slices are contiguous in frontier position, so iterating runs in worker
// order visits a shard's candidates in global key order with no sort.
struct Run {
  int worker = 0;
  std::size_t start = 0;
  std::size_t count = 0;
};

// One visited-table shard: node arenas indexed by local id, the intern
// table over them, and the multi-worker path's per-wave staging.
template <typename State, typename Action>
struct Shard {
  SegmentedArena<State> states;
  SegmentedArena<NodeMeta<Action>> meta;
  // Cached per-state hashes, kept only when snapshot hooks are in play
  // (aligned with `states`, rolled back with it).
  SegmentedArena<std::uint64_t> hashes;
  InternTable table;
  std::mutex mu;
  std::vector<Candidate<State, Action>> candidates;  // staged (under mu)
  std::vector<Run> runs;               // flush bookkeeping (under mu)
  std::vector<std::uint64_t> new_ids;  // interned this wave, key order
  std::vector<Key> new_keys;
  // Cached hashes of this wave's interned states, aligned with new_keys:
  // the beyond-cap rollback erases table entries with the hash already
  // computed during expand instead of re-hashing the state.
  std::vector<std::uint64_t> new_hashes;
  std::vector<PropHit> hits;  // uncommitted property violations
  // Table capacity when this wave's inserts began; the beyond-cap rollback
  // shrinks back toward it.
  std::size_t wave_capacity = 0;

  // Appends a node and records it in the table; returns its local index.
  std::int64_t Intern(State state, std::uint64_t hash, std::uint64_t parent,
                      const Action& via, bool track) {
    const auto idx = static_cast<std::int64_t>(states.size());
    states.push_back(std::move(state));
    meta.push_back({parent, via});
    if (track) hashes.push_back(hash);
    table.Insert(hash, idx);
    return idx;
  }

  // Local index of the node equal to `s` (hashing to `hash`), or -1.
  std::int64_t Find(std::uint64_t hash, const State& s) const {
    return table.Find(hash, [&](std::int64_t i) {
      return states[static_cast<std::size_t>(i)] == s;
    });
  }
};

}  // namespace internal

template <typename M>
struct ParallelExploreResult {
  std::vector<Violation<M>> violations;
  ExploreStats stats;
  ParallelExploreStats par;
  // True when options.cancel drained the search at a wave boundary; the
  // figures then cover the completed waves only.
  bool cancelled = false;

  const Violation<M>* FindViolation(const std::string& property) const {
    for (const auto& v : violations) {
      if (v.property == property) return &v;
    }
    return nullptr;
  }
  bool Holds(const std::string& property) const {
    return FindViolation(property) == nullptr;
  }
};

// Exhaustive BFS from the model's initial state on `exec` (or an executor
// created from options.jobs when none is passed). Deterministic: same output
// at any job count. `hooks`, when given, captures wave-boundary snapshots
// and/or resumes from one (see SnapshotHooks).
template <CheckableModel M>
ParallelExploreResult<M> ParallelExplore(
    const M& model, const PropertySet<typename M::State>& properties,
    const ParallelExploreOptions& options = {},
    dist::Executor* external_exec = nullptr,
    const SnapshotHooks<M>* hooks = nullptr) {
  using State = typename M::State;
  using Action = typename M::Action;

  const auto wall_start = std::chrono::steady_clock::now();

  std::unique_ptr<dist::Executor> owned_exec;
  dist::Executor* exec = external_exec;
  if (exec == nullptr) {
    owned_exec = std::make_unique<dist::Executor>(options.jobs);
    exec = owned_exec.get();
  }
  const int jobs = exec->jobs();
  const std::vector<double> busy_before = exec->BusySeconds();

  const int shard_bits = std::clamp(options.shard_bits, 0, 16);
  const std::uint32_t n_shards = 1u << shard_bits;

  const internal::ReductionEngine<M> red(model, options.base.reduction,
                                         !properties.empty());

  using internal::Key;
  using internal::kLocalMask;
  using internal::kNoParent;
  using NodeMeta = internal::NodeMeta<Action>;
  using Candidate = internal::Candidate<State, Action>;
  using Shard = internal::Shard<State, Action>;

  std::vector<Shard> shards(n_shards);
  {
    // One shard takes the whole hint; split tables take a share plus slack.
    const std::size_t full = internal::ReserveHint(options.base.max_states);
    const std::size_t hint = n_shards == 1 ? full : full / n_shards + 8;
    for (Shard& s : shards) {
      s.states = SegmentedArena<State>(hint);
      s.meta = SegmentedArena<NodeMeta>(hint);
      if (hooks != nullptr) s.hashes = SegmentedArena<std::uint64_t>(hint);
      s.table = InternTable(hint);
    }
  }

  const auto shard_of = [shard_bits](std::uint64_t h) -> std::uint32_t {
    return shard_bits == 0
               ? 0u
               : static_cast<std::uint32_t>(h >> (64 - shard_bits));
  };
  const auto make_id = [](std::uint32_t sh, std::int64_t idx) {
    return (static_cast<std::uint64_t>(sh) << 48) |
           static_cast<std::uint64_t>(idx);
  };
  const auto state_of = [&shards](std::uint64_t id) -> const State& {
    return shards[static_cast<std::size_t>(id >> 48)]
        .states[static_cast<std::size_t>(id & kLocalMask)];
  };

  auto reconstruct = [&](std::uint64_t id) {
    std::vector<Action> trace;
    for (;;) {
      const NodeMeta& m = shards[static_cast<std::size_t>(id >> 48)]
                              .meta[static_cast<std::size_t>(id & kLocalMask)];
      if (m.parent == kNoParent) break;
      trace.push_back(m.via);
      id = m.parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };

  ParallelExploreResult<M> result;
  result.par.shards = n_shards;
  result.par.jobs = jobs;
  const bool fvpp = options.base.first_violation_per_property;
  const std::uint32_t n_props = static_cast<std::uint32_t>(properties.size());
  const std::uint32_t kDeadlockProp = n_props;

  // Committed violations by property index, plus the deadlock flag.
  std::vector<char> violated(n_props, 0);
  std::uint32_t violated_count = 0;
  bool deadlocked = false;
  const auto commit = [&](std::uint32_t p, std::uint64_t id) {
    if (p == kDeadlockProp) {
      deadlocked = true;
      result.violations.push_back({"deadlock", reconstruct(id), state_of(id)});
      return;
    }
    if (violated[p] == 0) {
      violated[p] = 1;
      ++violated_count;
    }
    result.violations.push_back(
        {properties[p].name, reconstruct(id), state_of(id)});
  };
  auto all_violated = [&] {
    // An empty property set means "build the reachability graph", not "every
    // property is already violated" — keep exploring.
    return fvpp && n_props != 0 && violated_count == n_props &&
           !options.base.detect_deadlock;
  };

  // Snapshot bookkeeping, maintained only when hooks are in play: the global
  // discovery ("rank") order of states and the reverse id -> rank map. Rank
  // order is the jobs = 1 interning order at every job count, which is what
  // makes a snapshot resumable at any job count.
  const bool track = hooks != nullptr;
  std::vector<std::uint64_t> order;         // rank -> id
  std::unordered_map<std::uint64_t, std::uint64_t> rank_of;  // id -> rank
  std::uint64_t depth = 0;

  std::vector<std::uint64_t> frontier;
  std::uint64_t visited = 0;
  if (track && hooks->resume != nullptr) {
    // Rebuild the shard arenas and tables from the snapshot's rank-ordered
    // node list. Routing rank order through shard_of reproduces exactly the
    // per-shard insertion order of the producing run (a shard sees its
    // candidates in global key order), so arenas, table growth and
    // hash_occupancy all come out identical.
    const ExploreSnapshot<M>& snap = *hooks->resume;
    order.reserve(snap.nodes.size());
    for (std::size_t rank = 0; rank < snap.nodes.size(); ++rank) {
      const auto& n = snap.nodes[rank];
      const std::uint32_t sh = shard_of(n.hash);
      const std::uint64_t parent_id =
          n.parent == kNoParentRank ? kNoParent
                                    : order[static_cast<std::size_t>(n.parent)];
      const std::uint64_t id =
          make_id(sh, shards[sh].Intern(n.state, n.hash, parent_id, n.via,
                                        /*track=*/true));
      order.push_back(id);
      rank_of.emplace(id, rank);
    }
    visited = snap.nodes.size();
    frontier.reserve(snap.frontier.size());
    for (const std::uint64_t r : snap.frontier) {
      frontier.push_back(order[static_cast<std::size_t>(r)]);
    }
    depth = snap.depth;
    result.par.waves = snap.waves;
    result.stats.transitions = snap.transitions;
    result.stats.frontier_peak = snap.frontier_peak;
    result.stats.max_depth_reached = snap.max_depth_reached;
    result.stats.ample_states = snap.ample_states;
    result.violations = snap.violations;
    for (const auto& v : result.violations) {
      if (v.property == "deadlock") deadlocked = true;
      for (std::uint32_t p = 0; p < n_props; ++p) {
        if (properties[p].name == v.property && violated[p] == 0) {
          violated[p] = 1;
          ++violated_count;
        }
      }
    }
  } else {
    // Intern the initial state and check it (single-threaded).
    State init = red.Canon(model.initial());
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(init));
    const std::uint32_t sh = shard_of(h);
    const std::uint64_t id =
        make_id(sh, shards[sh].Intern(std::move(init), h, kNoParent, Action{},
                                      track));
    visited = 1;
    if (track) {
      order.push_back(id);
      rank_of.emplace(id, 0);
    }
    for (std::uint32_t p = 0; p < n_props; ++p) {
      if (!properties[p].holds(state_of(id))) commit(p, id);
    }
    frontier.push_back(id);
  }

  internal::SnapshotCadence cadence;
  if (track) {
    cadence.every_states = hooks->every_states;
    cadence.every_waves = hooks->every_waves;
    cadence.states_at_last = visited;
  }
  auto capture = [&] {
    ExploreSnapshot<M> snap;
    snap.nodes.resize(order.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      const std::uint64_t id = order[rank];
      const Shard& shard = shards[static_cast<std::size_t>(id >> 48)];
      const std::size_t local = static_cast<std::size_t>(id & kLocalMask);
      const NodeMeta& m = shard.meta[local];
      snap.nodes[rank] = {shard.states[local], shard.hashes[local],
                          m.parent == kNoParent ? kNoParentRank
                                                : rank_of.at(m.parent),
                          m.via};
    }
    snap.frontier.reserve(frontier.size());
    for (const std::uint64_t id : frontier) {
      snap.frontier.push_back(rank_of.at(id));
    }
    snap.depth = depth;
    snap.transitions = result.stats.transitions;
    snap.frontier_peak = result.stats.frontier_peak;
    snap.max_depth_reached = result.stats.max_depth_reached;
    snap.waves = result.par.waves;
    snap.ample_states = result.stats.ample_states;
    snap.violations = result.violations;
    return snap;
  };
  auto maybe_snapshot = [&] {
    if (track && hooks->on_snapshot != nullptr && !frontier.empty() &&
        !all_violated() && cadence.Due(visited)) {
      hooks->on_snapshot(capture());
    }
  };

  std::vector<std::uint64_t> worker_transitions(
      static_cast<std::size_t>(jobs), 0);
  std::vector<std::uint64_t> worker_ample(static_cast<std::size_t>(jobs), 0);
  std::vector<std::vector<Action>> worker_ample_buf(
      static_cast<std::size_t>(jobs));
  std::vector<std::vector<std::uint64_t>> worker_deadlocks(
      static_cast<std::size_t>(jobs));
  // Worker-local routing buffers, one per (worker, shard): candidates are
  // staged here during expand and flushed to the shard under its mutex once
  // per worker per wave, so lock traffic is O(jobs * shards), not
  // O(candidates). Buffers keep their capacity across waves.
  std::vector<std::vector<Candidate>> routed(
      static_cast<std::size_t>(jobs) * n_shards);

  bool truncated = false;
  std::vector<std::uint64_t> next_frontier;
  std::vector<std::pair<Key, std::uint64_t>> discovered;

  const auto drain_requested = [&options] {
    return options.cancel != nullptr &&
           options.cancel->load(std::memory_order_relaxed);
  };

  // POR plumbing shared by both paths: `wave_start` holds each shard's
  // arena size when the current wave began, so the C3 freshness predicate
  // means "interned before this wave" even when probed against a table that
  // has since grown — during the frozen expand phase the cutoff is a no-op,
  // on the jobs == 1 path (which interns mid-wave) it restores exact
  // pre-wave semantics. Both paths thus evaluate the same predicate, which
  // keeps reduced exploration byte-identical at any job count.
  std::vector<std::int64_t> wave_start(n_shards, 0);
  const auto mark_wave_start = [&] {
    if (!red.por()) return;
    for (std::uint32_t sh = 0; sh < n_shards; ++sh) {
      wave_start[sh] = static_cast<std::int64_t>(shards[sh].states.size());
    }
  };
  const auto is_old_canon = [&](const State& t) {
    const std::uint64_t h = static_cast<std::uint64_t>(HashValue(t));
    const std::uint32_t sh = shard_of(h);
    const std::int64_t found = shards[sh].Find(h, t);
    return found >= 0 && found < wave_start[sh];
  };

  if (jobs == 1) {
    // Serial path: the wave loop run directly over the sharded storage — no
    // staging, no merge, single probe per successor. It is the reference the
    // multi-worker path reproduces, including hash_occupancy, since the
    // shard tables end up with the same content.
    std::vector<Action> fast_ample;
    while (!frontier.empty() && !all_violated()) {
      if (drain_requested()) {
        result.cancelled = true;
        break;
      }
      result.stats.frontier_peak =
          std::max(result.stats.frontier_peak,
                   static_cast<std::uint64_t>(frontier.size()));
      result.stats.max_depth_reached =
          std::max(result.stats.max_depth_reached, depth);
      if (options.base.max_depth != 0 && depth >= options.base.max_depth) {
        truncated = true;
        break;
      }
      ++result.par.waves;
      mark_wave_start();
      next_frontier.clear();
      for (const std::uint64_t parent_id : frontier) {
        // Arena entries never move, so the parent stays valid while its
        // children are interned.
        const State& parent = state_of(parent_id);
        const std::vector<Action> actions = model.enabled(parent);
        if (actions.empty()) {
          if (options.base.detect_deadlock && !deadlocked &&
              !internal::IsFinal(model, parent)) {
            commit(kDeadlockProp, parent_id);
          }
          continue;
        }
        const std::vector<Action>* expand = &actions;
        if (red.por() &&
            red.SelectAmple(model, parent, actions, is_old_canon,
                            fast_ample)) {
          expand = &fast_ample;
          ++result.stats.ample_states;
        }
        for (const Action& a : *expand) {
          ++result.stats.transitions;
          State next = red.Canon(model.apply(parent, a));
          const std::uint64_t h = static_cast<std::uint64_t>(HashValue(next));
          const std::uint32_t sh = shard_of(h);
          Shard& shard = shards[sh];
          if (shard.Find(h, next) >= 0) continue;
          if (options.base.max_states != 0 &&
              visited >= options.base.max_states) {
            truncated = true;
            continue;
          }
          const std::uint64_t id = make_id(
              sh, shard.Intern(std::move(next), h, parent_id, a, track));
          ++visited;
          if (track) {
            rank_of.emplace(id, order.size());
            order.push_back(id);
          }
          const State& s = state_of(id);
          for (std::uint32_t p = 0; p < n_props; ++p) {
            if (fvpp && violated[p] != 0) continue;
            if (!properties[p].holds(s)) commit(p, id);
          }
          next_frontier.push_back(id);
        }
      }
      frontier.swap(next_frontier);
      ++depth;
      if (truncated) break;
      maybe_snapshot();
    }
  } else {
  while (!frontier.empty() && !all_violated()) {
    if (drain_requested()) {
      result.cancelled = true;
      break;
    }
    result.stats.frontier_peak =
        std::max(result.stats.frontier_peak,
                 static_cast<std::uint64_t>(frontier.size()));
    result.stats.max_depth_reached =
        std::max(result.stats.max_depth_reached, depth);
    if (options.base.max_depth != 0 && depth >= options.base.max_depth) {
      truncated = true;
      break;
    }
    ++result.par.waves;
    mark_wave_start();

    // --- 1. expand -------------------------------------------------------
    for (int w = 0; w < jobs; ++w) {
      worker_transitions[static_cast<std::size_t>(w)] = 0;
      worker_ample[static_cast<std::size_t>(w)] = 0;
      worker_deadlocks[static_cast<std::size_t>(w)].clear();
    }
    exec->ParallelFor(
        frontier.size(), [&](int w, std::size_t begin, std::size_t end) {
          const std::size_t wi = static_cast<std::size_t>(w);
          std::vector<Candidate>* local = &routed[wi * n_shards];
          std::vector<Action>& ample_buf = worker_ample_buf[wi];
          for (std::size_t pos = begin; pos < end; ++pos) {
            const State& s = state_of(frontier[pos]);
            const std::vector<Action> actions = model.enabled(s);
            if (actions.empty()) {
              if (options.base.detect_deadlock &&
                  !internal::IsFinal(model, s)) {
                worker_deadlocks[wi].push_back(pos);
              }
              continue;
            }
            const std::vector<Action>* expand = &actions;
            if (red.por() &&
                red.SelectAmple(model, s, actions, is_old_canon, ample_buf)) {
              expand = &ample_buf;
              ++worker_ample[wi];
            }
            for (std::uint32_t ai = 0;
                 ai < static_cast<std::uint32_t>(expand->size()); ++ai) {
              ++worker_transitions[wi];
              State next = red.Canon(model.apply(s, (*expand)[ai]));
              const std::uint64_t h =
                  static_cast<std::uint64_t>(HashValue(next));
              const std::uint32_t sh = shard_of(h);
              // The table is frozen during expand, so this probe needs no
              // lock; it filters duplicates from earlier waves.
              if (shards[sh].Find(h, next) >= 0) continue;
              local[sh].push_back(Candidate{std::move(next), h,
                                            Key{pos, ai + 1}, frontier[pos],
                                            (*expand)[ai]});
            }
          }
          // Flush this worker's staged candidates into the shard staging
          // areas, one lock per shard.
          for (std::uint32_t sh = 0; sh < n_shards; ++sh) {
            if (local[sh].empty()) continue;
            Shard& shard = shards[sh];
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.runs.push_back(
                {w, shard.candidates.size(), local[sh].size()});
            shard.candidates.insert(
                shard.candidates.end(),
                std::make_move_iterator(local[sh].begin()),
                std::make_move_iterator(local[sh].end()));
            local[sh].clear();
          }
        });
    for (int w = 0; w < jobs; ++w) {
      result.stats.transitions += worker_transitions[static_cast<std::size_t>(w)];
      result.stats.ample_states += worker_ample[static_cast<std::size_t>(w)];
    }

    // --- 2. insert -------------------------------------------------------
    // `violated` is read-only until merge, so it is the pre-wave set of
    // properties that need no further checks; merge resolves same-wave ties
    // by key.
    exec->ParallelFor(n_shards, [&](int, std::size_t begin, std::size_t end) {
      for (std::size_t si = begin; si < end; ++si) {
        Shard& shard = shards[si];
        shard.wave_capacity = shard.table.capacity();
        // Visit candidates in global key order: runs sorted by worker id
        // (worker slices are ascending in frontier position, and each run
        // is produced in key order).
        std::sort(shard.runs.begin(), shard.runs.end(),
                  [](const internal::Run& a, const internal::Run& b) {
                    return a.worker < b.worker;
                  });
        for (const internal::Run& run : shard.runs) {
          for (std::size_t ci = run.start; ci < run.start + run.count; ++ci) {
            Candidate& c = shard.candidates[ci];
            // Same-wave duplicate: first key wins.
            if (shard.Find(c.hash, c.state) >= 0) continue;
            const std::int64_t idx =
                shard.Intern(std::move(c.state), c.hash, c.parent, c.via,
                             track);
            const std::uint64_t id =
                make_id(static_cast<std::uint32_t>(si), idx);
            shard.new_ids.push_back(id);
            shard.new_keys.push_back(c.key);
            shard.new_hashes.push_back(c.hash);
            const State& s = shard.states[static_cast<std::size_t>(idx)];
            for (std::uint32_t p = 0; p < n_props; ++p) {
              if (fvpp && violated[p] != 0) continue;
              if (!properties[p].holds(s)) shard.hits.push_back({c.key, p, id});
            }
          }
        }
        shard.candidates.clear();
        shard.runs.clear();
      }
    });

    // --- 3. merge --------------------------------------------------------
    discovered.clear();
    for (Shard& shard : shards) {
      for (std::size_t i = 0; i < shard.new_ids.size(); ++i) {
        discovered.emplace_back(shard.new_keys[i], shard.new_ids[i]);
      }
    }
    std::sort(discovered.begin(), discovered.end());

    // max_states acts in discovery-key order, exactly like serial interning.
    std::size_t accept = discovered.size();
    if (options.base.max_states != 0 &&
        visited + discovered.size() > options.base.max_states) {
      accept = static_cast<std::size_t>(options.base.max_states - visited);
      truncated = true;
    }
    visited += accept;
    const bool has_cutoff = accept < discovered.size();
    const Key cutoff = accept > 0 ? discovered[accept - 1].first : Key{0, 0};

    // Roll back beyond-cap states: serial interning never admits them, so
    // drop them from the shard arenas and tables — and undo the table
    // growth they caused — to keep every reported figure (hash_occupancy,
    // largest_shard) identical at any job count. A shard's wave entries are
    // appended in ascending key order, so the rejects are a suffix of its
    // arena.
    if (has_cutoff) {
      for (Shard& shard : shards) {
        const std::size_t keep = static_cast<std::size_t>(
            std::upper_bound(shard.new_keys.begin(), shard.new_keys.end(),
                             cutoff) -
            shard.new_keys.begin());
        while (shard.new_keys.size() > keep) {
          // Erase by the hash cached at insert time — re-hashing the state
          // here would double the hash work for every beyond-cap state.
          shard.table.Erase(
              shard.new_hashes.back(),
              static_cast<std::int64_t>(shard.states.size()) - 1);
          shard.states.pop_back();
          shard.meta.pop_back();
          if (track) shard.hashes.pop_back();
          shard.new_keys.pop_back();
          shard.new_ids.pop_back();
          shard.new_hashes.pop_back();
        }
        shard.table.ShrinkToFit(shard.wave_capacity);
      }
    }
    for (Shard& shard : shards) {
      shard.new_ids.clear();
      shard.new_keys.clear();
      shard.new_hashes.clear();
    }

    // Commit violation candidates in (key, property) order — the minimal
    // (depth, canonical-trace) counterexample per property, and the same
    // violations-vector order as serial.
    std::vector<internal::PropHit> vcands;
    if (options.base.detect_deadlock && !deadlocked) {
      for (const auto& positions : worker_deadlocks) {
        for (const std::uint64_t pos : positions) {
          vcands.push_back({Key{pos, 0}, kDeadlockProp, frontier[pos]});
        }
      }
    }
    for (Shard& shard : shards) {
      for (const internal::PropHit& hit : shard.hits) {
        // States beyond the cap were never interned serially, so their
        // property checks never happened.
        if (has_cutoff && (accept == 0 || cutoff < hit.key)) continue;
        vcands.push_back(hit);
      }
      shard.hits.clear();
    }
    std::sort(vcands.begin(), vcands.end(),
              [](const internal::PropHit& a, const internal::PropHit& b) {
                return std::tie(a.key, a.property) < std::tie(b.key, b.property);
              });
    for (const internal::PropHit& c : vcands) {
      if (c.property == kDeadlockProp ? deadlocked
                                      : fvpp && violated[c.property] != 0) {
        continue;
      }
      commit(c.property, c.id);
    }

    next_frontier.clear();
    next_frontier.reserve(accept);
    for (std::size_t i = 0; i < accept; ++i) {
      next_frontier.push_back(discovered[i].second);
    }
    if (track) {
      for (std::size_t i = 0; i < accept; ++i) {
        rank_of.emplace(discovered[i].second, order.size());
        order.push_back(discovered[i].second);
      }
    }
    frontier.swap(next_frontier);
    ++depth;
    if (truncated) break;
    maybe_snapshot();
  }
  }

  result.stats.states_visited = visited;
  result.stats.truncated = truncated;
  // Orbit accounting: each canonical representative stands for its whole
  // permutation orbit. Recomputed over the final arenas (rollback keeps them
  // equal to the visited set) on both paths.
  if (red.orbits()) {
    for (const Shard& shard : shards) {
      for (std::size_t i = 0; i < shard.states.size(); ++i) {
        result.stats.represented_states += red.OrbitSize(shard.states[i]);
      }
    }
  } else {
    result.stats.represented_states = visited;
  }
  std::size_t table_size = 0;
  std::size_t table_capacity = 0;
  for (const Shard& shard : shards) {
    table_size += shard.table.size();
    table_capacity += shard.table.capacity();
    result.par.largest_shard =
        std::max(result.par.largest_shard,
                 static_cast<std::uint64_t>(shard.table.size()));
  }
  result.stats.hash_occupancy =
      table_capacity == 0
          ? 0.0
          : static_cast<double>(table_size) / static_cast<double>(table_capacity);
  result.stats.elapsed_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  const std::vector<double> busy_after = exec->BusySeconds();
  for (std::size_t w = 0; w < busy_after.size(); ++w) {
    result.par.worker_busy_seconds +=
        busy_after[w] - (w < busy_before.size() ? busy_before[w] : 0.0);
  }
  if (result.stats.elapsed_wall_seconds > 0 && jobs > 0) {
    result.par.utilization =
        std::min(1.0, result.par.worker_busy_seconds /
                          (static_cast<double>(jobs) *
                           result.stats.elapsed_wall_seconds));
  }
  return result;
}

// Serial exhaustive exploration: ParallelExplore at one job over a single
// visited-table shard. The single shard keeps per-call setup small on the
// tiny screening models and makes hash_occupancy the load factor of one
// table.
template <CheckableModel M>
ExploreResult<M> Explore(const M& model,
                         const PropertySet<typename M::State>& properties,
                         const ExploreOptions& options = {},
                         const SnapshotHooks<M>* hooks = nullptr) {
  ParallelExploreOptions popt;
  popt.base = options;
  popt.jobs = 1;
  popt.shard_bits = 0;
  ParallelExploreResult<M> r =
      ParallelExplore(model, properties, popt, nullptr, hooks);
  return {std::move(r.violations), r.stats};
}

}  // namespace cnv::mck
