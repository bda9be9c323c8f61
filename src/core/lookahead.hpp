#pragma once

/// \file lookahead.hpp
/// The allocation-free, candidate-pruned lookahead simulation engine behind
/// Lynceus' long-sighted decisions (paper §4.3, Algorithm 2) and its §4.4
/// multi-constraint extension.
///
/// A decision simulates, for every screened budget-viable root x, an
/// exploration path of up to LA further steps; each step's speculated
/// outcome is discretized into Gauss–Hermite branches and each branch
/// refits the models with the fantasy sample. The naive implementation
/// deep-copies the optimizer state Σ and re-predicts the *entire*
/// configuration space at every branch, making a path node cost
/// O(|space| · trees · depth) plus O(|space|) of copying. This engine
/// removes both:
///
///  * **Delta states.** Each worker owns a single path state (training
///    rows, per-objective targets, feasibility flags). Descending into a
///    branch pushes the fantasy sample; returning pops it. No per-branch
///    copies, and no per-config `tested` array at all — testedness is
///    implied by the candidate list.
///  * **Candidate pruning.** The ascending list of untested configurations
///    shrinks by exactly the path's own step as it descends, and the models
///    are only asked to predict that list (Regressor::predict_subset), so a
///    path node costs O(candidates) instead of O(|space|). The full-space
///    predict_all runs once per decision and objective, at the root.
///  * **Fused acquisition.** One pass per node computes (P(c ≤ β), EIc)
///    per candidate and keeps the running argmax; the root pass stores the
///    EIc values the screening sort and stop-rule reuse, instead of
///    re-deriving prob_within/EI per consumer.
///
/// Complexity per simulated path node: one ensemble refit per objective on
/// |S|+depth samples plus one O(candidates) batched prediction per
/// objective and one O(candidates) fused scan — down from O(|space|)
/// prediction and O(|space|) state copying. After the first simulated path
/// warms the buffers, simulate() performs zero heap allocation under the
/// default bagging model (asserted by the test suite via
/// util/alloc_count.hpp). The batched predictions run over the ensemble's
/// flat SoA tree layout with ensemble-owned scratch that capacity-warms to
/// the space bound on first use, so the guarantee holds across batch sizes
/// and route switches — not just for shapes seen during warm-up (see
/// model/decision_tree.hpp, "flat-layout determinism contract").
///
/// ## One skeleton, two policies
///
/// ExplorePaths is written once, as detail::PathSimulator<Policy>: the
/// workspace pool, the FIFO branch-replica ring, the epoch-synced path
/// state, simulate(), the explore/explore_branch recursion with its depth-0
/// branch fan-out and ordered reduction, and the root pass (fits,
/// full-space predictions, incumbent, Γ and EIc). A path node evaluates a
/// vector of objectives, objective 0 being the job cost. The policy type
/// supplies what differs between the two problems:
///
///  * **Objectives:** 1 (CostPolicy → LookaheadEngine, §4.3), or the cost
///    plus one metric per constraint (MultiConstraintPolicy →
///    MultiConstraintEngine, §4.4).
///  * **Branch set:** the K Gauss–Hermite nodes of the speculated cost, or
///    the Cartesian product of the per-objective K-point discretizations,
///    pruned below `prune_weight` and renormalized, in flat per-depth
///    buffers sized K^(I+1) once at construction.
///  * **Fantasy feasibility:** cost ≤ cap(x), plus every speculated metric
///    within its threshold.
///  * **Candidate score:** constrained_ei, or the EIc product with every
///    constraint-satisfaction probability; the scan's product exits early
///    once it cannot strictly beat the running best (each factor is ≤ 1,
///    so the argmax is unchanged).
///  * **Fit seed** of objective o from a node seed s: s itself, or
///    derive_seed(s, o) — one rule for the root fit and every branch refit.
///  * **Child seed** of branch i: derive_seed(path_seed, 131·(i+1)+7), or
///    derive_seed(path_seed, 131·i+7).
///  * **Speculated-cost floor:** 0.001·µ, or 0.001·max(µ, 1e-12).
///  * **Setup cost** (§4.4): Options::setup_cost, or none.
///
/// Each policy keeps its engine's floating-point operation order exactly,
/// so the pins hold by construction; the list above is where the two
/// trajectories differ, and merging any of its pairs moves a pin. The
/// policy is a plain template parameter: no virtual call and no
/// std::function runs per branch or per candidate (the optional setup-cost
/// function is called once per path node).
///
/// Determinism: each engine reproduces its naive reference trajectory
/// bit-for-bit — same derive_seed call structure, same candidate scan
/// order (ascending ids), same floating-point accumulation order in the
/// batched predictions (see Regressor's batched-prediction contract).
/// Neither engine caches anything across decisions: the steppers above
/// them consult RootCache (below) and skip an exactly repeated decision
/// before it reaches an engine.
///
/// ## Incremental-refit determinism contract
///
/// With `Options::incremental_refit` **off (the default)** every simulated
/// branch refits its ensembles from scratch, and trajectories are pinned
/// **bit-for-bit** against the naive references the test suite keeps
/// (reference::NaiveLynceus in tests/lookahead_reference.hpp,
/// reference::NaiveMultiConstraintLynceus / McSimulator in
/// tests/constraints_reference.hpp) — the golden-trajectory tests enforce
/// this for LA 0/1/2, one and two constraints. Nothing about the default
/// path changes when the flag exists but is off.
///
/// With the flag **on** (and a model supporting it — the bagging ensemble;
/// the GP silently falls back to from-scratch refits), a branch that
/// appends one fantasy sample *updates* the parent node's fitted ensembles
/// instead of refitting them: per-depth, per-objective model slots are
/// assign_fitted() from the parent (the decision's root models at depth 0)
/// and append_and_update() with the fantasy sample — Oza–Russell online
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
///    buffers, from-scratch models, and per-depth incremental-model
///    slots). Shared per-node inputs (the branch set, the child candidate
///    list, the root models incremental branches assign_fitted from) are
///    read-only for the whole section.
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

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
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
#include "util/rng.hpp"
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
    /// Maximum number of cached decisions; 0 disables the cache. No
    /// default: LRU over a replay longer than the capacity evicts every
    /// entry just before it is needed, so each caller sizes its cache.
    std::size_t capacity;
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

namespace detail {

/// Per-objective predictions, [objective][row].
using PredTable = std::vector<std::vector<model::Prediction>>;

/// Single-constraint policy (§4.3): the cost is the only objective, and a
/// simulated step speculates it on K Gauss–Hermite nodes.
class CostPolicy {
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

  /// A node's K branches: the quadrature nodes of its speculated cost.
  struct Branches {
    std::vector<math::QuadraturePoint> nodes;
    double cost_floor = 0.0;  ///< a run is never free: 0.001·µ

    [[nodiscard]] double cost(std::size_t i) const {
      return std::max(nodes[i].value, cost_floor);
    }
    [[nodiscard]] double weight(std::size_t i) const { return nodes[i].weight; }
    [[nodiscard]] const double* metrics(std::size_t) const { return nullptr; }
  };

  static constexpr const char* kName = "LookaheadEngine";
  static constexpr bool kSetupCost = true;

  CostPolicy(const OptimizationProblem& problem, const Options& options,
             const math::GaussHermite& quadrature)
      : problem_(problem), options_(options), quadrature_(quadrature) {}

  [[nodiscard]] std::size_t objectives() const { return 1; }
  [[nodiscard]] std::size_t max_branches() const { return quadrature_.size(); }
  void init(Branches& b) const { b.nodes.resize(quadrature_.size()); }
  std::size_t speculate(Branches& b, const model::Prediction* x) const;
  [[nodiscard]] bool fantasy_feasible(ConfigId x, double cost,
                                      const double*) const {
    return cost <= problem_.feasibility_cost_cap(x);
  }
  [[nodiscard]] double root_score(double y_star, ConfigId id,
                                  const model::Prediction& cost,
                                  const PredTable&, std::size_t) const;
  [[nodiscard]] double scan_score(double y_star, ConfigId id,
                                  const model::Prediction& cost,
                                  const PredTable& preds, std::size_t j,
                                  double) const {
    return root_score(y_star, id, cost, preds, j);
  }
  [[nodiscard]] static std::uint64_t fit_seed(std::uint64_t seed,
                                              std::size_t) {
    return seed;
  }
  [[nodiscard]] static std::uint64_t child_seed(std::uint64_t path_seed,
                                                std::size_t i) {
    return util::derive_seed(path_seed, 131 * (i + 1) + 7);
  }
  [[nodiscard]] double setup_cost(const std::optional<ConfigId>& from,
                                  ConfigId to) const {
    return options_.setup_cost ? options_.setup_cost(from, to) : 0.0;
  }

 private:
  const OptimizationProblem& problem_;
  const Options& options_;
  const math::GaussHermite& quadrature_;
};

/// Multi-constraint policy (§4.4): the cost plus one regression target per
/// auxiliary constraint, speculated jointly. Thresholds and feasibility
/// caps are pure functions of the id, evaluated once at construction.
class MultiConstraintPolicy {
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

  /// A node's kept joint-speculation combos in flat buffers.
  struct Branches {
    std::vector<math::QuadraturePoint> nodes;  ///< (I+1)·K branch points
    std::vector<std::size_t> radix;            ///< mixed-radix combo index
    std::vector<double> combo_cost;    ///< clamped costs
    std::vector<double> combo_weight;  ///< renormalized weights
    std::vector<double> combo_metric;  ///< I metrics each
    std::size_t constraints = 0;

    [[nodiscard]] double cost(std::size_t i) const { return combo_cost[i]; }
    [[nodiscard]] double weight(std::size_t i) const {
      return combo_weight[i];
    }
    [[nodiscard]] const double* metrics(std::size_t i) const {
      return combo_metric.data() + i * constraints;
    }
  };

  static constexpr const char* kName = "MultiConstraintEngine";
  static constexpr bool kSetupCost = false;

  MultiConstraintPolicy(const OptimizationProblem& problem,
                        const Options& options,
                        const math::GaussHermite& quadrature);

  [[nodiscard]] std::size_t objectives() const {
    return 1 + options_.thresholds.size();
  }
  [[nodiscard]] std::size_t max_branches() const { return combo_cap_; }
  void init(Branches& b) const;
  /// Builds the pruned, renormalized joint-speculation combos of the I+1
  /// predictions `x`; returns the kept-combination count.
  std::size_t speculate(Branches& b, const model::Prediction* x) const;
  [[nodiscard]] bool fantasy_feasible(ConfigId x, double cost,
                                      const double* metrics) const;
  /// EIc(x) with the product of all constraint-satisfaction probabilities
  /// (reference::McSimulator::eic's operation order); the metric
  /// predictions of x are preds[1..I][j].
  [[nodiscard]] double root_score(double y_star, ConfigId id,
                                  const model::Prediction& cost,
                                  const PredTable& preds,
                                  std::size_t j) const;
  /// root_score with the next-step scan's early exit: the product only
  /// shrinks as factors are multiplied in, so once it cannot strictly beat
  /// `best` the remaining cdfs are skipped.
  [[nodiscard]] double scan_score(double y_star, ConfigId id,
                                  const model::Prediction& cost,
                                  const PredTable& preds, std::size_t j,
                                  double best) const;
  [[nodiscard]] static std::uint64_t fit_seed(std::uint64_t seed,
                                              std::size_t objective) {
    return util::derive_seed(seed, objective);
  }
  [[nodiscard]] static std::uint64_t child_seed(std::uint64_t path_seed,
                                                std::size_t i) {
    return util::derive_seed(path_seed, 131 * i + 7);
  }

 private:
  const Options& options_;
  const math::GaussHermite& quadrature_;
  std::size_t combo_cap_ = 1;  ///< K^(I+1)
  std::vector<double> caps_;
  std::vector<std::vector<double>> threshold_by_id_;  ///< [constraint][id]
};

/// ExplorePaths (Algorithm 2) over a Policy's objectives — the skeleton both
/// engines instantiate (see the file comment). The recursion, the
/// workspaces and the root pass live here; the public engines add only
/// their decision entry point and accessors.
template <class Policy>
class PathSimulator {
 public:
  using Options = typename Policy::Options;

  /// `workers` is the maximum number of concurrent simulate() calls; one
  /// model + path-state workspace is preallocated per worker. `problem`
  /// must outlive the engine.
  PathSimulator(const OptimizationProblem& problem, Options options,
                const model::ModelFactory& factory, std::size_t workers);

  /// Budget-viable untested configurations Γ, ascending (valid after
  /// begin_decision).
  [[nodiscard]] const std::vector<ConfigId>& viable() const noexcept {
    return viable_;
  }

  /// Incumbent y* of the current decision.
  [[nodiscard]] double incumbent() const noexcept { return y_star_; }

  /// ExplorePaths rooted at `root` (must be in Γ). Safe to call
  /// concurrently from up to `workers` threads between two begin_decision
  /// calls.
  [[nodiscard]] PathValue simulate(ConfigId root, std::uint64_t path_seed);

 protected:
  /// Starts a decision from the root state Σ the engine's begin_decision
  /// filled into root_rows_/root_y_/root_feasible_: fits every objective's
  /// root model with `Policy::fit_seed(fit_seed, objective)`, runs the
  /// decision's full-space predictions, the incumbent rule and the fused
  /// root pass (Γ in ascending id order, per-candidate EIc). Not
  /// thread-safe against concurrent simulate() calls.
  void start_decision(double remaining_budget, std::uint64_t fit_seed);

  const Options options_;
  const model::FeatureMatrix fm_;

  // Root snapshot of the current decision.
  std::vector<std::uint32_t> root_rows_;
  std::vector<std::vector<double>> root_y_;  ///< [objective][sample]
  std::vector<char> root_feasible_;
  PredTable root_preds_;  ///< [objective][config id]
  std::vector<double> eic_by_id_;
  double max_viable_eic_ = 0.0;

 private:
  /// Per-depth, per-worker buffers of the recursion.
  struct Level {
    std::vector<std::uint32_t> cands;  ///< untested ids, ascending
    PredTable preds;                   ///< [objective], parallel to cands
    /// The chosen candidate's predictions, per objective.
    std::vector<model::Prediction> x_pred;
    typename Policy::Branches branches;
    /// Incremental mode only: this depth's per-objective models,
    /// assign_fitted() from the parent's (root models at depth 0) and
    /// appended with the branch's fantasy sample. Empty when incremental
    /// refit is off.
    std::vector<std::unique_ptr<model::Regressor>> inc_models;
  };

  /// One worker's exclusive state: per-objective model instances plus the
  /// single delta-maintained path state Σ.
  struct Workspace {
    std::vector<std::unique_ptr<model::Regressor>> models;
    std::vector<std::uint32_t> rows;      ///< training rows (real + fantasy)
    std::vector<std::vector<double>> y;   ///< [objective][sample]
    std::vector<char> feasible;           ///< per-sample feasibility
    std::vector<Level> levels;
    std::vector<model::Prediction> root_x_pred;  ///< the root's, per objective
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

  /// The path node at x: its own step's (reward, cost) plus, with steps
  /// left, the weighted contributions of its branches.
  PathValue explore(Workspace& ws, std::size_t depth, ConfigId x,
                    const model::Prediction* x_preds, double x_eic,
                    double beta, const std::optional<ConfigId>& chi,
                    const std::vector<std::uint32_t>& cands,
                    unsigned steps_left, std::uint64_t path_seed);

  /// One depth-`depth` fantasy branch (Algorithm 2 lines 8-25): pushes the
  /// fantasy sample on `ws`, refits/appends the branch models, runs the
  /// fused NextStep scan and recurses into the chosen candidate. `shared`
  /// supplies the node's read-only inputs (branch set, child candidate
  /// list): serial callers pass ws.levels[depth] itself, the
  /// branch-parallel partitions pass the primary workspace's level.
  /// Returns true and fills `out` when the branch found a viable
  /// continuation to recurse into.
  bool explore_branch(Workspace& ws, std::size_t depth, std::size_t i,
                      ConfigId x, double switch_cost, double beta,
                      const Level& shared, unsigned steps_left,
                      std::uint64_t path_seed, PathValue& out);

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
  const math::GaussHermite quadrature_;
  const Policy policy_;

  std::vector<std::unique_ptr<model::Regressor>> root_models_;
  std::optional<ConfigId> root_chi_;  ///< deployed config: the last sample
  std::vector<std::uint32_t> root_cands_;  ///< untested ids, ascending
  std::vector<char> tested_;               ///< scratch for root_cands_
  std::vector<ConfigId> viable_;
  double root_beta_ = 0.0;
  double y_star_ = 0.0;
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

// Both instantiations are compiled once, in core/lookahead.cpp.
extern template class PathSimulator<CostPolicy>;
extern template class PathSimulator<MultiConstraintPolicy>;

/// A decision's pick among simulated roots.
struct RootChoice {
  ConfigId id = 0;
  double ratio = 0.0;  ///< reward / max(cost, 1e-12)
};

/// The steppers' shared decision tail (Algorithm 1): simulates one path
/// per root — in parallel on `pool` when given, path seed
/// derive_seed(seed, iteration · 1000003 + root) — into `values`, and
/// returns the root with the best reward/cost ratio (the first on ties).
/// `roots` must not be empty.
template <class Engine>
RootChoice best_root(Engine& engine, util::ThreadPool* pool,
                     const std::vector<ConfigId>& roots, std::uint64_t seed,
                     std::uint64_t iteration, std::vector<PathValue>& values) {
  values.assign(roots.size(), PathValue{});
  util::maybe_parallel_for(pool, roots.size(), [&](std::size_t i) {
    values[i] = engine.simulate(
        roots[i], util::derive_seed(seed, iteration * 1000003ULL + roots[i]));
  });
  RootChoice best{roots.front(), -std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const double ratio = values[i].reward / std::max(values[i].cost, 1e-12);
    if (ratio > best.ratio) best = {roots[i], ratio};
  }
  return best;
}

}  // namespace detail

/// The single-constraint engine (§4.3): PathSimulator over CostPolicy.
class LookaheadEngine final : public detail::PathSimulator<detail::CostPolicy> {
 public:
  using PathSimulator::PathSimulator;

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
    return root_preds_.front();
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

  [[nodiscard]] const model::FeatureMatrix& feature_matrix() const noexcept {
    return fm_;
  }
};

/// The multi-constraint engine (§4.4): PathSimulator over
/// MultiConstraintPolicy — path simulation over a *vector* of objectives,
/// the job cost plus one regression target per auxiliary constraint,
/// pinned bit-for-bit against reference::McSimulator
/// (tests/constraints_reference.hpp) by the golden-trajectory tests.
class MultiConstraintEngine final
    : public detail::PathSimulator<detail::MultiConstraintPolicy> {
 public:
  using PathSimulator::PathSimulator;

  /// Starts a decision from the optimizer's root state: `y_metric[c]`
  /// holds the measured values of constraint c aligned with `rows`,
  /// `feasible` the joint (deadline and every constraint) per-sample
  /// feasibility flags. Fits cost + metric models, runs the full-space
  /// predictions, the incumbent rule and the fused Γ/EIc root pass.
  /// §4.4 uses no root screening: the optimizer simulates all of Γ. Not
  /// thread-safe against concurrent simulate() calls.
  void begin_decision(const std::vector<std::uint32_t>& rows,
                      const std::vector<double>& y_cost,
                      const std::vector<std::vector<double>>& y_metric,
                      const std::vector<char>& feasible,
                      double remaining_budget, std::uint64_t fit_seed);

  /// Root-model cost predictions (objective 0) for every configuration.
  [[nodiscard]] const std::vector<model::Prediction>& root_cost_predictions()
      const noexcept {
    return root_preds_.front();
  }

  /// Number of constraints I (objectives are I+1).
  [[nodiscard]] std::size_t constraint_count() const noexcept {
    return options_.thresholds.size();
  }
};

}  // namespace lynceus::core
