#pragma once

/// \file lookahead.hpp
/// The allocation-free, candidate-pruned lookahead simulation engine behind
/// Lynceus' long-sighted decisions (paper §4.3, Algorithm 2).
///
/// A decision simulates, for every screened budget-viable root x, an
/// exploration path of up to LA further steps; each step's speculated cost
/// is discretized into K Gauss–Hermite branches and each branch refits the
/// cost model with the fantasy sample. The naive implementation deep-copies
/// the optimizer state Σ and re-predicts the *entire* configuration space
/// at every branch, making a path node cost O(|space| · trees · depth) plus
/// O(|space|) of copying. This engine removes both:
///
///  * **Delta states.** Each worker owns a single path state (training
///    rows, targets, feasibility flags). Descending into a branch pushes
///    the fantasy sample; returning pops it. No per-branch copies, and no
///    per-config `tested` array at all — testedness is implied by the
///    candidate list.
///  * **Candidate pruning.** The ascending list of untested configurations
///    shrinks by exactly the path's own step as it descends, and the model
///    is only asked to predict that list (Regressor::predict_subset), so a
///    path node costs O(candidates) instead of O(|space|). The full-space
///    predict_all runs once per decision, at the root.
///  * **Fused acquisition.** One pass per node computes (P(c ≤ β), EIc)
///    per candidate and keeps the running argmax; the root pass stores the
///    EIc values the screening sort and stop-rule reuse, instead of
///    re-deriving prob_within/EI per consumer.
///
/// Complexity per simulated path node: one ensemble refit on |S|+depth
/// samples plus one O(candidates) batched prediction and one O(candidates)
/// fused scan — down from O(|space|) prediction and O(|space|) state
/// copying. After the first simulated path warms the buffers, simulate()
/// performs zero heap allocation under the default bagging model (asserted
/// by the test suite via util/alloc_count.hpp). The batched predictions
/// run over the ensemble's flat SoA tree layout with ensemble-owned
/// scratch that capacity-warms to the space bound on first use, so the
/// guarantee holds across batch sizes and route switches — not just for
/// shapes seen during warm-up (see model/decision_tree.hpp, "flat-layout
/// determinism contract").
///
/// Determinism: the engine reproduces the naive reference trajectory
/// bit-for-bit — same derive_seed call structure, same candidate scan
/// order (ascending ids), same floating-point accumulation order in the
/// batched predictions (see Regressor's batched-prediction contract).
///
/// Two engines share this machinery: LookaheadEngine for the
/// single-constraint problem (§4.3) and MultiConstraintEngine for the §4.4
/// multi-constraint extension, where a path node evaluates a *vector* of
/// objectives (cost + one metric per constraint) and joint speculation over
/// the Cartesian Gauss–Hermite product becomes flat per-depth workspace
/// buffers instead of per-combination state copies. Neither engine caches
/// anything across decisions: the steppers above them consult RootCache
/// (below) and skip an exactly repeated decision before it reaches an
/// engine.
///
/// ## Incremental-refit determinism contract
///
/// With `Options::incremental_refit` **off (the default)** every simulated
/// branch refits its ensemble from scratch, and trajectories are pinned
/// **bit-for-bit** against the committed naive references
/// (reference::NaiveLynceus in core/lookahead_reference.hpp,
/// reference::NaiveMultiConstraintLynceus / McSimulator in
/// core/constraints_reference.hpp) — the golden-trajectory tests enforce
/// this for LA 0/1/2, one and two constraints. Nothing
/// about the default path changes when the flag exists but is off.
///
/// With the flag **on** (and a model supporting it — the bagging ensemble;
/// the GP silently falls back to from-scratch refits), a branch that
/// appends one fantasy sample *updates* the parent node's fitted ensemble
/// instead of refitting it: per-depth model slots are assign_fitted() from
/// the parent (the decision's root model at depth 0) and
/// append_and_update() with the fantasy sample — Oza–Russell online
/// bagging with per-tree leaf updates and leaf re-splits (see
/// model/bagging.hpp). What is and is not pinned then:
///
///  * **Pinned (bitwise):** repeatability. The same (samples, seeds, flag)
///    reproduce byte-identical trajectories, across runs, build modes and
///    worker counts, with the decision cache on or off.
///  * **Not pinned:** equality with the flag-off trajectory. Incremental
///    fits are statistically equivalent, not bitwise equal, to
///    from-scratch fits (different bootstrap composition for the appended
///    sample), so flag-on trajectories may diverge from the golden ones.
///    The differential suite (tests/test_incremental_refit.cpp) pins the
///    agreement: prediction deltas within a calibrated tolerance of the
///    from-scratch fit's own seed-to-seed variability, and
///    trajectory-level cost/regret parity with both naive references.
///
/// **derive_seed scheme.** The flag does not change the seed call
/// structure, only its interpretation: branch i of a node still derives
/// `branch_seed = derive_seed(path_seed, i + 1)` (and, multi-constraint,
/// `derive_seed(branch_seed, objective)` per objective) — flag off that
/// value seeds the from-scratch refit, flag on it becomes the
/// append_and_update update seed, which the ensemble splits into
/// per-tree streams via derive_seed(derive_seed(update_seed,
/// kIncrementalStream), tree). Incremental and from-scratch fits thus
/// consume disjoint, individually well-mixed seed streams and each path
/// is internally deterministic under either flag value.
///
/// ## Pooled-determinism contract (branch parallelism)
///
/// `Options::branch_pool` parallelizes *inside* a root simulation: the
/// depth-0 fantasy-branch fan-out — the K Gauss–Hermite branches of a
/// LookaheadEngine node, the pruned K^(I+1) joint-speculation combos of a
/// MultiConstraintEngine node — is split into at most
/// `branch_pool->worker_count() + 1` contiguous index ranges by
/// util::ThreadPool::parallel_ranges' static partition (pure index
/// arithmetic; independent of scheduling). What keeps pooled and serial
/// trajectories **byte-identical**:
///
///  * **Branch independence.** A branch fully reverts its Σ deltas before
///    the next branch runs, so no branch ever observes another's state —
///    the serial loop is already a sequence of independent computations
///    plus an ordered reduction.
///  * **Per-worker replicas.** Each partition runs on its own complete
///    workspace replica (path state, per-depth candidate/prediction
///    buffers, from-scratch model, and per-depth incremental-model slots —
///    the PR 3 `Level::inc_model(s)` replicated per worker). Shared
///    per-node inputs (quadrature nodes / pruned combos, the child
///    candidate list, the root models incremental branches assign_fitted
///    from) are read-only for the whole section.
///  * **Fixed reduction order.** Every branch writes its (cost, reward)
///    contribution into its own slot; the calling thread reduces the slots
///    in ascending branch order after the section completes, reproducing
///    the serial loop's floating-point accumulation order exactly. The
///    fused Γ/EIc scans run entirely inside their branch, so their
///    argmax/tie-break order is untouched.
///
/// Deeper-depth fan-outs stay serial within their branch (the partitions
/// already saturate the pool; nesting would only add dispatch overhead).
/// **Bit-pinned:** trajectories for any (pool, worker-count) choice,
/// including pool off, with incremental refit on or off —
/// the golden-trajectory and pooled-vs-serial suites enforce this.
/// **Not pinned:** wall-clock timing and which thread computes which
/// branch. simulate() remains zero-allocation after warm-up with the pool
/// on (parallel_ranges coordinates through a preallocated per-workspace
/// section; asserted process-wide by the test suite via
/// util::AllocCountAllThreadsGuard).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/trace.hpp"
#include "core/types.hpp"
#include "math/gauss_hermite.hpp"
#include "model/regressor.hpp"
#include "util/thread_pool.hpp"

namespace lynceus::core {

/// §4.4 "Setup costs": monetary cost of switching the deployed
/// configuration from `current` (nullopt = nothing deployed yet) to `next`.
using SetupCostFn =
    std::function<double(std::optional<ConfigId> current, ConfigId next)>;

/// Reward and cost of an exploration path (return of ExplorePaths).
struct PathValue {
  double reward = 0.0;
  double cost = 0.0;
};

/// Server-wide cache of whole Lynceus decisions: a session that meets a
/// decision state some session has already decided skips the decision —
/// no root fit, no prediction, no path simulation — and returns the
/// stored choice.
///
/// **What is cached.** The Lynceus and multi-constraint steppers
/// (core/lynceus.cpp, core/constraints.cpp) look the decision up before
/// LookaheadEngine/MultiConstraintEngine::begin_decision. A hit returns
/// the cached DecisionEvent — the chosen configuration and everything
/// the stepper reports to its observer — without fitting, predicting or
/// simulating. A miss decides exactly as without a cache and stores the
/// event. Stop outcomes ("no viable configuration left", the EI stop) are
/// never stored; they are rare and cheap. An entry is O(samples) bytes.
///
/// **The key is exact.** It holds everything a decision reads:
///  * a per-stepper *context*, built once: a stepper-kind tag, the
///    problem's content (every configuration's features, unit prices,
///    Tmax, budget) and every option that can change a trajectory
///    (lookahead, Gauss–Hermite points, gamma, feasibility quantile,
///    blacklisting, incremental refit, and per kind the screen width and
///    EI-stop fraction or the per-id constraint thresholds, metric
///    indices and prune weight);
///  * the per-decision *state*: seed, iteration, remaining budget, every
///    sample (id, cost, feasible flag; the constraint metrics for the
///    multi-constraint stepper) and every failure id.
///
/// Entries are compared byte for byte (the hash only filters), so a hit
/// is the very choice the skipped computation would make: a decision is a
/// deterministic function of the state in its key, and trajectories are
/// identical with the cache on or off. Pool width and branch parallelism
/// stay out of the key — core/lookahead.hpp's pooled-determinism contract
/// already holds them byte-identical.
///
/// **Bypasses.** A function cannot be keyed, so a stepper given a
/// `setup_cost` or a custom `model_factory` never consults the cache.
///
/// **Eviction.** Least recently used once `capacity` is exceeded. An
/// exact key needs no other invalidation: a state that never recurs
/// simply ages out.
///
/// **Thread safety and sharing.** One mutex guards every call; a lookup
/// copies the small DecisionEvent out. One instance serves any mix of
/// problems, option sets and stepper kinds — the key tells them apart —
/// so a tuning server keeps one cache for all its shards
/// (net::TuningServer), and in-process callers share one across
/// optimize() runs (LynceusOptions::root_cache /
/// MultiConstraintOptions::root_cache). Not owned by the steppers; it
/// must outlive them.
class RootCache {
 public:
  struct Options {
    /// Maximum number of cached decisions; 0 disables the cache.
    std::size_t capacity = 8;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };

  /// One stepper's decision key: the context is set once, the state is
  /// rebuilt per decision (its buffer's capacity is reused).
  class Key {
   public:
    /// Seals `context` as the per-stepper part of every key.
    void set_context(std::string context);
    /// Restarts the per-decision state with the parts every stepper
    /// shares; steppers then put() their own (constraint metrics).
    void begin_state(std::uint64_t seed, std::uint64_t iteration,
                     double remaining_budget,
                     const std::vector<Sample>& samples,
                     const std::vector<FailureRecord>& failures);
    template <class T>
    void put(const T& v) {
      append(state_, v);
    }

    /// Appends the raw bytes of a scalar to a key buffer.
    template <class T>
    static void append(std::string& out, const T& v) {
      static_assert(std::is_arithmetic_v<T>, "key parts are scalars");
      out.append(reinterpret_cast<const char*>(&v), sizeof(T));
    }
    /// Appends the problem's content to a context.
    static void append_problem(std::string& out,
                               const OptimizationProblem& problem);

   private:
    friend class RootCache;
    /// Mutable: the cache may swap in an equal, shared copy.
    mutable std::shared_ptr<const std::string> context_;
    std::uint64_t context_hash_ = 0;
    std::string state_;
  };

  RootCache();
  explicit RootCache(Options options);

  /// Exact-match lookup: on a hit copies the decision into `out` and
  /// returns true. Counts a hit or a miss (nothing when capacity is 0).
  /// `key` may adopt a cached copy of its context (see store()).
  [[nodiscard]] bool lookup(const Key& key, DecisionEvent& out);

  /// Stores a decision under `key` (no-op when already cached or when
  /// capacity is 0), evicting the least recently used entry when full.
  /// Keys with equal contexts end up sharing one copy: `key` adopts an
  /// entry's equal context, so sessions of one problem and option set
  /// hold one context between them, and later compares are by pointer.
  void store(const Key& key, const DecisionEvent& decision);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const std::string> context;
    std::uint64_t context_hash = 0;
    std::uint64_t hash = 0;  ///< of context and state together
    std::string state;
    DecisionEvent decision;
    std::uint64_t tick = 0;  ///< LRU stamp
  };

  /// Index of the entry matching `key` (hash `hash`), or npos.
  [[nodiscard]] std::size_t find(const Key& key, std::uint64_t hash) const;
  /// True when `e`'s context equals `key`'s.
  static bool same_context(const Entry& e, const Key& key);

  const Options options_;
  mutable std::mutex mutex_;
  Stats stats_;
  std::uint64_t tick_ = 0;
  std::vector<Entry> entries_;
};

class LookaheadEngine {
 public:
  struct Options {
    unsigned lookahead = 2;           ///< LA
    unsigned gh_points = 3;           ///< K branches per simulated step
    double gamma = 0.9;               ///< reward discount
    double feasibility_quantile = 0.99;  ///< Γ filter quantile
    SetupCostFn setup_cost;           ///< optional §4.4 extension
    /// Opt-in incremental ensemble refit of simulated branches (see the
    /// file-level determinism contract). Off by default: the pinned
    /// golden-trajectory semantics are bit-identical with the flag off.
    /// Ignored (from-scratch refits) when the model factory's regressor
    /// does not support incremental updates.
    bool incremental_refit = false;
    /// Optional intra-root branch parallelism (see the pooled-determinism
    /// contract in the file header): the depth-0 branch fan-out of every
    /// simulate() call is statically range-partitioned across this pool,
    /// each partition on its own workspace replica, contributions reduced
    /// in branch order — trajectories are byte-identical to serial runs.
    /// Null (or a zero-worker pool) = serial branches. Not owned; must
    /// outlive the engine.
    util::ThreadPool* branch_pool = nullptr;
  };

  /// `workers` is the maximum number of concurrent simulate() calls; one
  /// model + path-state workspace is preallocated per worker. `problem`
  /// must outlive the engine.
  LookaheadEngine(const OptimizationProblem& problem, Options options,
                  const model::ModelFactory& factory, std::size_t workers);

  /// Starts a decision: snapshots the optimizer's samples into the root
  /// state Σ, refits the root model with `fit_seed`, runs the one
  /// full-space prediction of the decision, and the fused root acquisition
  /// pass (incumbent y*, viable set Γ in ascending id order, per-candidate
  /// EIc). Not thread-safe against concurrent simulate() calls.
  void begin_decision(const std::vector<Sample>& samples,
                      double remaining_budget, std::uint64_t fit_seed);

  /// Root-model predictions for every configuration (valid after
  /// begin_decision).
  [[nodiscard]] const std::vector<model::Prediction>& root_predictions()
      const noexcept {
    return root_preds_;
  }

  /// Incumbent y* of the current decision.
  [[nodiscard]] double incumbent() const noexcept { return y_star_; }

  /// Budget-viable untested configurations Γ, ascending.
  [[nodiscard]] const std::vector<ConfigId>& viable() const noexcept {
    return viable_;
  }

  /// max_{x ∈ Γ} EIc(x); 0 when Γ is empty (EIc is never negative).
  [[nodiscard]] double max_viable_eic() const noexcept {
    return max_viable_eic_;
  }

  /// Root EIc(x) from the fused pass. Only meaningful for x ∈ Γ.
  [[nodiscard]] double root_eic(ConfigId id) const { return eic_by_id_[id]; }

  /// Fills `out` with the roots to simulate: all of Γ, or when
  /// `width > 0` and Γ is larger, the `width` best by the one-step
  /// EIc/E[cost] score (implementation approximation, see DESIGN.md §5).
  void screened_roots(unsigned width, std::vector<ConfigId>& out) const;

  /// ExplorePaths (Algorithm 2) rooted at `root` (must be in Γ). Safe to
  /// call concurrently from up to `workers` threads between two
  /// begin_decision calls.
  [[nodiscard]] PathValue simulate(ConfigId root, std::uint64_t path_seed);

  [[nodiscard]] const model::FeatureMatrix& feature_matrix() const noexcept {
    return fm_;
  }

 private:
  /// Per-depth, per-worker buffers of the recursion.
  struct Level {
    std::vector<std::uint32_t> cands;       ///< untested ids, ascending
    std::vector<model::Prediction> preds;   ///< parallel to cands
    std::vector<math::QuadraturePoint> nodes;  ///< K branch points
    /// Incremental mode only: this depth's model, assign_fitted() from the
    /// parent's (root model at depth 0) and appended with the branch's
    /// fantasy sample. Null when incremental refit is off.
    std::unique_ptr<model::Regressor> inc_model;
  };

  /// One worker's exclusive state: a model instance plus the single
  /// delta-maintained path state Σ.
  struct Workspace {
    std::unique_ptr<model::Regressor> model;
    std::vector<std::uint32_t> rows;  ///< training rows (real + fantasy)
    std::vector<double> y;            ///< observed / speculated costs
    std::vector<char> feasible;       ///< per-sample feasibility
    std::vector<Level> levels;
    std::uint64_t epoch = 0;  ///< decision this path state mirrors
    /// Branch parallelism only (primary workspaces; see the
    /// pooled-determinism contract): per-branch contribution slots
    /// reduced in branch order, and the preallocated parallel_ranges
    /// control block. Empty / null when branch parallelism is off. The
    /// workspace replicas the partitions run on live in the engine-wide
    /// shared pool (branch_workspaces_), not per primary.
    std::vector<PathValue> branch_value;
    std::vector<char> branch_taken;
    std::unique_ptr<util::ThreadPool::RangeSection> section;
  };

  [[nodiscard]] double setup_cost(const std::optional<ConfigId>& from,
                                  ConfigId to) const {
    return options_.setup_cost ? options_.setup_cost(from, to) : 0.0;
  }

  /// Exactly `prob_within(beta, pred) >= feasibility_quantile`, without
  /// evaluating the normal cdf: `viable_z_` is the smallest double z with
  /// norm_cdf(z) >= q (found once by bisection), so comparing the z-score
  /// against it reproduces the cdf comparison decision bit-for-bit while
  /// replacing an erfc call per candidate with a subtract-divide-compare.
  [[nodiscard]] bool budget_viable(double beta,
                                   const model::Prediction& pred) const
      noexcept {
    if (pred.stddev <= 0.0) return beta >= pred.mean;
    return (beta - pred.mean) / pred.stddev >= viable_z_;
  }

  PathValue explore(Workspace& ws, std::size_t depth, ConfigId x,
                    double x_mean, double x_stddev, double x_eic, double beta,
                    const std::optional<ConfigId>& chi,
                    const std::vector<std::uint32_t>& cands,
                    unsigned steps_left, std::uint64_t path_seed);

  /// One depth-`depth` fantasy branch (Algorithm 2 lines 8-25): pushes the
  /// fantasy sample on `ws`, refits/appends the branch model, runs the
  /// fused NextStep scan and recurses into the chosen candidate. `shared`
  /// supplies the node's read-only inputs (quadrature nodes, child
  /// candidate list): serial callers pass ws.levels[depth] itself, the
  /// branch-parallel partitions pass the primary workspace's level.
  /// Returns true and fills `out` when the branch found a viable
  /// continuation to recurse into.
  bool explore_branch(Workspace& ws, std::size_t depth, std::size_t i,
                      ConfigId x, double x_mean, double switch_cost,
                      double beta, double cap, const Level& shared,
                      unsigned steps_left, std::uint64_t path_seed,
                      PathValue& out);

  /// Re-seeds `ws`'s path state Σ from the decision's root snapshot when
  /// it mirrors an older decision; marks it dirty for the caller to
  /// restore (see simulate()).
  void sync_workspace(Workspace& ws);

  Workspace* acquire_workspace();
  void release_workspace(Workspace* ws);

  /// Shared branch-replica pool (branch parallelism only). Sized to the
  /// maximum number of partitions that can execute simultaneously —
  /// pool workers + primary workspaces, capped by the total partition
  /// count — instead of one replica set per primary, which would grow
  /// O(workers²). Replica identity cannot affect results: every field a
  /// partition consumes is either re-synced from the decision's root
  /// state (epoch check) or fully overwritten per branch. acquire blocks
  /// (never in practice: the pool is sized for the worst case) and is
  /// allocation-free. The free list is a FIFO ring, not a stack: every
  /// acquisition takes the oldest-released replica, so a bounded number
  /// of warm-up simulations deterministically rotates through (and sizes
  /// the buffers of) every replica — with a LIFO stack, replicas past the
  /// peak concurrency depth would stay cold and their first use would
  /// allocate long after "warm-up", which the zero-alloc suite forbids.
  Workspace* acquire_branch_workspace();
  void release_branch_workspace(Workspace* ws);

  const OptimizationProblem& problem_;
  const Options options_;
  const model::FeatureMatrix fm_;
  const math::GaussHermite quadrature_;

  // Root snapshot of the current decision.
  std::unique_ptr<model::Regressor> root_model_;
  std::vector<std::uint32_t> root_rows_;
  std::vector<double> root_y_;
  std::vector<char> root_feasible_;
  std::vector<std::uint32_t> root_cands_;  ///< untested ids, ascending
  std::vector<char> tested_;               ///< scratch for root_cands_
  std::vector<model::Prediction> root_preds_;
  std::vector<ConfigId> viable_;
  std::vector<double> eic_by_id_;
  double root_beta_ = 0.0;
  std::optional<ConfigId> root_chi_;
  double y_star_ = 0.0;
  double max_viable_eic_ = 0.0;
  double viable_z_ = 0.0;
  std::uint64_t epoch_ = 0;
  /// Options::incremental_refit and the model actually supports it.
  bool incremental_ok_ = false;
  /// Static partitions of the depth-0 branch fan-out (1 = serial).
  std::size_t branch_parts_ = 1;

  std::vector<Workspace> workspaces_;
  std::mutex pool_mutex_;
  std::vector<Workspace*> free_workspaces_;

  std::vector<std::unique_ptr<Workspace>> branch_workspaces_;
  /// FIFO ring over branch_workspaces_ (see acquire_branch_workspace):
  /// fixed capacity, pop at branch_head_, push at head + free count.
  std::vector<Workspace*> free_branch_;
  std::size_t branch_head_ = 0;
  std::size_t branch_free_ = 0;
  std::mutex branch_mutex_;
  std::condition_variable branch_cv_;
};

/// The multi-constraint twin of LookaheadEngine (paper §4.4): path
/// simulation over a *vector* of objectives — the job cost plus one
/// regression target per auxiliary constraint.
///
/// Differences from the single-constraint engine, all pinned bit-for-bit
/// against reference::McSimulator (core/constraints_reference.hpp) by the
/// golden-trajectory tests:
///  * each node fits I+1 models (cost + per-constraint metrics) on the
///    same rows with per-objective derived seeds;
///  * a simulated step speculates *jointly*: the Cartesian product of the
///    per-objective Gauss–Hermite discretizations, pruned of combinations
///    below `prune_weight` and renormalized, becomes the branch set. The
///    combinations live in flat per-depth buffers (values, weights,
///    metrics) sized K^(I+1) once at construction — no per-combination
///    heap state;
///  * the acquisition multiplies every constraint-satisfaction
///    probability into EIc. The fused next-step scan prunes on the
///    cost-only EI upper bound (every probability factor is <= 1, so the
///    single-constraint bound holds a fortiori), and since the product
///    only shrinks as factors are multiplied in, each partial product
///    <= the running best exits the candidate early — the argmax (first
///    index attaining the max) is unchanged.
///
/// Like LookaheadEngine, simulate() performs zero heap allocation after
/// warm-up.
class MultiConstraintEngine {
 public:
  struct Options {
    unsigned lookahead = 1;
    unsigned gh_points = 3;
    double gamma = 0.9;
    double feasibility_quantile = 0.99;
    /// Joint-speculation combinations below this weight are pruned.
    double prune_weight = 1e-3;
    /// Per-constraint thresholds t_i(x), in constraint order. Must be pure
    /// functions of x (they are evaluated once per configuration at
    /// construction).
    std::vector<std::function<double(ConfigId)>> thresholds;
    /// Opt-in incremental refit of all I+1 per-branch ensembles (see the
    /// file-level determinism contract). Off by default; ignored when the
    /// model does not support incremental updates.
    bool incremental_refit = false;
    /// Optional intra-root branch parallelism over the depth-0 pruned
    /// joint-speculation combo scan (see the pooled-determinism contract
    /// in the file header) — byte-identical trajectories, serial or
    /// pooled. Null (or a zero-worker pool) = serial. Not owned.
    util::ThreadPool* branch_pool = nullptr;
  };

  MultiConstraintEngine(const OptimizationProblem& problem, Options options,
                        const model::ModelFactory& factory,
                        std::size_t workers);

  /// Starts a decision from the optimizer's root state: `y_metric[c]`
  /// holds the measured values of constraint c aligned with `rows`,
  /// `feasible` the joint (deadline and every constraint) per-sample
  /// feasibility flags. Fits cost + metric models, runs the full-space
  /// predictions, the incumbent rule
  /// and the fused Γ/EIc root pass. Not thread-safe against concurrent
  /// simulate() calls.
  void begin_decision(const std::vector<std::uint32_t>& rows,
                      const std::vector<double>& y_cost,
                      const std::vector<std::vector<double>>& y_metric,
                      const std::vector<char>& feasible,
                      double remaining_budget, std::uint64_t fit_seed);

  /// Budget-viable untested configurations Γ, ascending (valid after
  /// begin_decision). The multi-constraint optimizer simulates all of
  /// them — §4.4 uses no root screening.
  [[nodiscard]] const std::vector<ConfigId>& viable() const noexcept {
    return viable_;
  }

  /// Root-model cost predictions (objective 0) for every configuration.
  [[nodiscard]] const std::vector<model::Prediction>& root_cost_predictions()
      const noexcept {
    return root_preds_.front();
  }

  /// Incumbent y* of the current decision.
  [[nodiscard]] double incumbent() const noexcept { return y_star_; }

  /// ExplorePaths with joint speculation, rooted at `root` (must be in Γ).
  /// Safe to call concurrently from up to `workers` threads between two
  /// begin_decision calls.
  [[nodiscard]] PathValue simulate(ConfigId root, std::uint64_t path_seed);

  /// Number of constraints I (objectives are I+1).
  [[nodiscard]] std::size_t constraint_count() const noexcept {
    return options_.thresholds.size();
  }

 private:
  /// Per-depth, per-worker buffers of the recursion.
  struct Level {
    std::vector<std::uint32_t> cands;      ///< untested ids, ascending
    std::vector<model::Prediction> cost_preds;  ///< parallel to cands
    /// Per-constraint predictions, parallel to cands.
    std::vector<std::vector<model::Prediction>> metric_preds;
    std::vector<math::QuadraturePoint> nodes;  ///< (I+1)·K branch points
    std::vector<std::size_t> radix;        ///< mixed-radix combo index
    std::vector<double> combo_cost;        ///< kept combos: clamped costs
    std::vector<double> combo_weight;      ///< kept combos: renormalized w
    std::vector<double> combo_metric;      ///< kept combos: I metrics each
    std::vector<model::Prediction> x_pred;   ///< chosen candidate, I+1 preds
    /// Incremental mode only: this depth's I+1 models, assign_fitted()
    /// from the parent's and appended with the branch's fantasy sample
    /// per objective. Empty when incremental refit is off.
    std::vector<std::unique_ptr<model::Regressor>> inc_models;
  };

  /// begin_decision scratch: the I metric predictions of one root
  /// candidate, gathered contiguously for mc_eic.
  std::vector<model::Prediction> root_mpred_scratch_;

  /// One worker's exclusive delta-maintained path state Σ.
  struct Workspace {
    std::vector<std::unique_ptr<model::Regressor>> models;  ///< I+1
    std::vector<std::uint32_t> rows;
    std::vector<double> y_cost;
    std::vector<std::vector<double>> y_metric;  ///< [constraint][sample]
    std::vector<char> feasible;
    std::vector<Level> levels;
    std::vector<model::Prediction> root_x_pred;  ///< I+1 root preds of x
    std::uint64_t epoch = 0;
    /// Branch parallelism only (primary workspaces; see the
    /// pooled-determinism contract): per-combo contribution slots reduced
    /// in combo order, preallocated parallel_ranges control block. The
    /// replicas partitions run on live in the engine-wide shared pool.
    std::vector<PathValue> branch_value;
    std::vector<char> branch_taken;
    std::unique_ptr<util::ThreadPool::RangeSection> section;
  };

  /// Exact `prob_within(beta, pred) >= feasibility_quantile` via the
  /// precomputed cdf boundary (see LookaheadEngine::budget_viable).
  [[nodiscard]] bool budget_viable(double beta,
                                   const model::Prediction& pred) const
      noexcept {
    if (pred.stddev <= 0.0) return beta >= pred.mean;
    return (beta - pred.mean) / pred.stddev >= viable_z_;
  }

  /// EIc(x) with the product of all constraint-satisfaction probabilities,
  /// replicating reference::McSimulator::eic's operation order. The metric
  /// predictions are supplied by the caller (full-space at the root, lazy
  /// scalar predictions inside the scan).
  [[nodiscard]] double mc_eic(double y_star, ConfigId x,
                              const model::Prediction& cost_pred,
                              const model::Prediction* metric_preds) const;

  /// Builds the pruned, renormalized joint-speculation combos of `x_preds`
  /// into `lvl`'s flat buffers; returns the kept-combination count.
  std::size_t speculate(Level& lvl, const model::Prediction* x_preds) const;

  PathValue explore(Workspace& ws, std::size_t depth, ConfigId x,
                    const model::Prediction* x_preds, double x_eic,
                    double beta, const std::vector<std::uint32_t>& cands,
                    unsigned steps_left, std::uint64_t path_seed);

  /// One depth-`depth` joint-speculation combo (index i): pushes the
  /// fantasy sample on every objective of `ws`, refits/appends the I+1
  /// branch models, runs the fused multi-constraint NextStep scan and
  /// recurses into the chosen candidate. `shared` supplies the node's
  /// read-only inputs (pruned combo buffers, child candidate list); see
  /// LookaheadEngine::explore_branch for the serial/parallel aliasing.
  bool explore_branch(Workspace& ws, std::size_t depth, std::size_t i,
                      ConfigId x, double cap_x, double beta,
                      const Level& shared, unsigned steps_left,
                      std::uint64_t path_seed, PathValue& out);

  /// Re-seeds `ws`'s path state Σ from the decision's root snapshot (see
  /// LookaheadEngine::sync_workspace).
  void sync_workspace(Workspace& ws);

  Workspace* acquire_workspace();
  void release_workspace(Workspace* ws);

  /// Shared branch-replica pool (see
  /// LookaheadEngine::acquire_branch_workspace).
  Workspace* acquire_branch_workspace();
  void release_branch_workspace(Workspace* ws);

  const OptimizationProblem& problem_;
  const Options options_;
  const model::FeatureMatrix fm_;
  const math::GaussHermite quadrature_;

  /// Precomputed per-configuration feasibility cost caps and constraint
  /// thresholds (pure functions of the id).
  std::vector<double> caps_;
  std::vector<std::vector<double>> threshold_by_id_;  ///< [constraint][id]

  // Root snapshot of the current decision.
  std::vector<std::unique_ptr<model::Regressor>> root_models_;  ///< I+1
  std::vector<std::uint32_t> root_rows_;
  std::vector<double> root_y_cost_;
  std::vector<std::vector<double>> root_y_metric_;
  std::vector<char> root_feasible_;
  std::vector<std::uint32_t> root_cands_;  ///< untested ids, ascending
  std::vector<char> tested_;               ///< scratch for root_cands_
  std::vector<std::vector<model::Prediction>> root_preds_;  ///< [objective]
  std::vector<ConfigId> viable_;
  std::vector<double> eic_by_id_;
  double root_beta_ = 0.0;
  double y_star_ = 0.0;
  double viable_z_ = 0.0;
  std::uint64_t epoch_ = 0;
  /// Options::incremental_refit and the model actually supports it.
  bool incremental_ok_ = false;
  /// Static partitions of the depth-0 combo fan-out (1 = serial).
  std::size_t branch_parts_ = 1;

  std::vector<Workspace> workspaces_;
  std::mutex pool_mutex_;
  std::vector<Workspace*> free_workspaces_;

  std::vector<std::unique_ptr<Workspace>> branch_workspaces_;
  /// FIFO ring over branch_workspaces_ (see
  /// LookaheadEngine::acquire_branch_workspace).
  std::vector<Workspace*> free_branch_;
  std::size_t branch_head_ = 0;
  std::size_t branch_free_ = 0;
  std::mutex branch_mutex_;
  std::condition_variable branch_cv_;
};

}  // namespace lynceus::core
