#pragma once

/// \file decision_tree.hpp
/// CART-style regression tree over discrete (level-coded) features.
///
/// This is the base learner of the bagging ensemble (paper §3: "a bagging
/// ensemble of decision trees"; §5.2: "a bagging ensemble of 10 random
/// trees"). "Random" follows the Weka RandomTree convention: at every split
/// a random subset of features is considered.
///
/// Split search exploits the discreteness of the configuration space: for
/// each candidate feature, per-level (count, sum) statistics are
/// accumulated in one pass and every threshold between adjacent levels is
/// scored by variance reduction — O(n·d + levels·d) per node, no sorting.
/// This matters: Lynceus refits the ensemble for every Gauss–Hermite branch
/// of every simulated exploration path, so tree fitting dominates the
/// optimizer's decision time. The fit scratch is owned by the tree and
/// reused across refits, so a refit at steady state performs no heap
/// allocation.
///
/// The scan has fast paths. Each one yields exactly the tree, leaf values
/// and RNG stream of the plain per-level sweep, for these reasons:
///   * Occupied levels are tracked in per-feature bitmasks (one 64-bit
///     word per 64 levels). The sweep visits the set bits in level order
///     and stops before the highest one. It never scores an empty level.
///     An empty level would repeat the previous candidate's score, which
///     the strict `>` first-max rule never takes. Below the lowest or from
///     the highest occupied level one side is empty, so no candidate is
///     scored there either.
///   * A feature seen on a single level at a node is constant on every
///     descendant, since descendants hold subsets of its rows. It offers
///     no candidate there, so descendants skip its statistics. The feature
///     draw itself is unchanged, so the RNG stream is too.
///   * A node holding copies of exactly two configurations has, for every
///     feature, at most one threshold: the lower of the two codes. Each
///     level bucket then holds one configuration, whose row-order target
///     sum is that bucket's sum. So per-configuration (count, sum) gives
///     the same score without bucket passes. A node holding one
///     configuration cannot split.
///   * Candidate scores are computed after the prefix pass, with the same
///     expression, and the first strict maximum is selected in the same
///     (feature, level) order.
///   * The row partition is a branch-free Lomuto pass that yields the same
///     permutation, so children see their rows, and sum their targets, in
///     the same order.
///
/// Batched prediction: flat-layout determinism contract
/// -----------------------------------------------------
/// A tree stores its nodes as a structure of arrays — packed routing words
/// (feature << 16 | threshold code, and left | right << 32) plus
/// leaf-value / leaf-variance arrays — in which leaves *self-loop*
/// (left == right == self, threshold == 0xFFFF), so batch routing is a
/// branch-free level-synchronous sweep: every row advances one level per
/// pass, rows already at a leaf spin in place, and after depth() passes
/// each row sits at exactly the leaf the scalar predict() descent reaches.
/// predict_batch()/accumulate_batch() use two routes over those arrays:
///   * a dense level-mask walk (batch covers most of the space and the
///     FeatureMatrix has precomputed level masks) that intersects row
///     bitmasks per split, and
///   * the level-synchronous sweep (sparse batches, duplicate ids, or
///     mask-less spaces), whose per-row compare/route loop the compiler
///     auto-vectorizes (explicit AVX2 gathers behind LYNCEUS_SIMD, with a
///     runtime CPU check; identical integer routing either way).
/// plan_batch() picks the route once per batch and, for the dense walk,
/// builds the batch's row mask once; an ensemble plans a batch once and
/// routes it through every tree.
///
/// What is bit-pinned: the leaf each row lands in, the float leaf
/// value/variance read from it, and the per-row accumulation order of
/// accumulate_batch — all byte-identical to the scalar predict() /
/// predict_stats() path, across routes, build flags and toolchains (the
/// routing is pure integer compare/select; no FP reassociation anywhere).
/// Callers may mix scalar and batch entry points freely.
///
/// The same arrays serve building, the scalar descent and serialization:
/// every node is written as it is created (fit(), append_incremental()
/// re-splits, load_state()), and an inner node's children word once its
/// children exist. There is no second copy to keep in sync.
///
/// Scratch ownership: batch entry points take a caller-owned
/// PredictScratch (BaggingEnsemble owns one per predict chunk); passing
/// nullptr falls back to function-local scratch that allocates per call.
/// With a caller-owned scratch, batches at steady state (warmed to the
/// largest batch size) perform no heap allocation.

#include <cstdint>
#include <vector>

#include "model/regressor.hpp"
#include "util/rng.hpp"

namespace lynceus::model {

/// Caller-owned scratch for the batch prediction entry points (file
/// comment, "Scratch ownership"). Replaces the former thread_local
/// buffers: a thread_local copy per worker thread grew to the largest
/// batch ever seen and was never released; this struct is owned by the
/// predicting ensemble (one slot per predict chunk) and freed with it.
/// Buffers only grow, so steady-state batches are allocation-free once
/// warmed. One scratch must not be used by two concurrent batch calls.
struct PredictScratch {
  // Level-synchronous sweep: current node per batch row, plus the
  // precomputed row*cols code offsets the SIMD gather kernel consumes.
  std::vector<std::int32_t> cur;
  std::vector<std::uint32_t> row_base;
  // Dense level-mask walk. plan_batch() sets `dense` and, when it is set,
  // fills the batch's row mask; the row -> batch position map serves the
  // position-indexed entry points, the arena and stack each tree's walk.
  bool dense = false;
  std::vector<std::uint64_t> root_mask;
  std::vector<std::uint32_t> pos_of_row;
  std::vector<std::uint64_t> arena;
  std::vector<std::int64_t> stack;
  // Ensemble-level per-row accumulators and id scratch
  // (BaggingEnsemble::predict_rows / predict_all).
  std::vector<double> sum;
  std::vector<double> sumsq;
  std::vector<double> var_sum;
  std::vector<std::uint32_t> ids;
};

struct TreeOptions {
  /// Maximum tree depth (root = 0).
  unsigned max_depth = 30;
  /// Minimum number of samples required to attempt a split.
  unsigned min_samples_split = 2;
  /// Number of features considered per split; 0 means "all features"
  /// (plain CART). The Weka RandomTree default, used by the Lynceus
  /// ensemble, is ⌈log2(d)⌉ + 1.
  unsigned features_per_split = 0;
  /// Whether leaves record the training-target variance (needed only for
  /// the ensemble's TotalVariance mode). When false, predict_stats()
  /// reports variance 0 and fitting skips one pass per leaf — measurable,
  /// since the lookahead engine refits thousands of trees per decision.
  bool leaf_variance = true;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeOptions options = {});

  /// Fits on the (possibly repeated) rows. `rows.size() == y.size() > 0`.
  void fit(const FeatureMatrix& fm, const std::vector<std::uint32_t>& rows,
           const std::vector<double>& y, util::Rng& rng);

  /// Point prediction (mean of the leaf reached by `row`).
  [[nodiscard]] double predict(const FeatureMatrix& fm,
                               std::uint32_t row) const;

  /// Leaf statistics for `row`: the leaf's training mean and the (biased)
  /// variance of the training targets that fell into it. Enables the
  /// SMAC-style law-of-total-variance combination in the ensemble.
  struct LeafStats {
    double mean = 0.0;
    double variance = 0.0;
  };
  [[nodiscard]] LeafStats predict_stats(const FeatureMatrix& fm,
                                        std::uint32_t row) const;

  /// Batched leaf lookup over the flat layout (see file comment). For
  /// each i in [0, n): writes the leaf mean of row `rows[i]` to
  /// `out_value[i]` and, when `out_variance` is non-null, the leaf
  /// variance to `out_variance[i]`. `rows == nullptr` means the identity
  /// batch (row i = i), which is how predict-all over a whole
  /// FeatureMatrix avoids materializing an index vector. `scratch` is the
  /// caller-owned workspace; nullptr uses function-local scratch (one
  /// allocation per call).
  void predict_batch(const FeatureMatrix& fm, const std::uint32_t* rows,
                     std::size_t n, float* out_value,
                     float* out_variance = nullptr,
                     PredictScratch* scratch = nullptr) const;

  /// Ensemble-fused batch: for each i in [0, n), with v the leaf mean of
  /// row `rows[i]` (as a double), performs `sum[i] += v` and
  /// `sumsq[i] += v*v`, plus `var_sum[i] += leaf variance` when `var_sum`
  /// is non-null. Exactly predict_batch followed by the caller's
  /// accumulation loop — same leaves, same per-row operation order — in a
  /// single walk, which is how BaggingEnsemble avoids materializing
  /// per-tree outputs.
  void accumulate_batch(const FeatureMatrix& fm, const std::uint32_t* rows,
                        std::size_t n, double* sum, double* sumsq,
                        double* var_sum,
                        PredictScratch* scratch = nullptr) const;

  /// Plans one batch for every tree built with this tree's options: picks
  /// the route (see file comment) and, for the dense walk, builds the row
  /// mask in `s`. Also capacity-warms every route buffer of `s` to the
  /// space bound, so steady-state batches stay allocation-free whichever
  /// route they take.
  void plan_batch(const FeatureMatrix& fm, const std::uint32_t* rows,
                  std::size_t n, PredictScratch& s) const;

  /// accumulate_batch() over a batch already planned in `s` by
  /// plan_batch(fm, rows, n, s) — the ensemble's per-tree call — except
  /// that on the dense route (`s.dense`) the accumulators are indexed by
  /// row id and must span fm.rows(): row rows[i] accumulates into
  /// sum[rows[i]]. That keeps the per-row position lookup out of every
  /// tree's walk; the caller maps rows to positions once.
  void accumulate_planned(const FeatureMatrix& fm, const std::uint32_t* rows,
                          std::size_t n, double* sum, double* sumsq,
                          double* var_sum, PredictScratch& s) const;

  /// --- Incremental refit support (used by BaggingEnsemble's
  /// --- append_and_update; see core/lookahead.hpp for the engine-level
  /// --- determinism contract).

  /// Turns membership capture on: subsequent fit() calls record the
  /// training multiset (rows, y), each sample's leaf and per-node depths,
  /// and reserve buffers so that up to `reserve_extra`
  /// append_incremental() calls after a fit perform no heap allocation.
  void set_incremental(bool on, std::size_t reserve_extra);

  /// True when the tree holds captured membership (fitted while capture
  /// was on), i.e. append_incremental() may be called.
  [[nodiscard]] bool has_membership() const noexcept {
    return !inc_rows_.empty() && node_depth_.size() == node_fs_.size();
  }

  /// Appends one training sample to the captured membership and updates
  /// the fitted tree in place: the sample is routed to its leaf, and
  /// either the leaf's (mean, variance) are recomputed over its updated
  /// member set, or — when the leaf is splittable (>= min_samples_split
  /// members below max_depth) — the leaf's subtree is re-split from
  /// scratch over exactly those members, with the same variance-reduction
  /// search and `rng`-driven feature subsetting as fit(). Split decisions
  /// of interior nodes *above* the leaf are left as fitted; this is the
  /// documented approximation of the incremental path (the differential
  /// tests pin its agreement with from-scratch fits). Deterministic given
  /// (fitted state, rng state). Requires has_membership().
  void append_incremental(const FeatureMatrix& fm, std::uint32_t row,
                          double y, util::Rng& rng);

  /// Copies `src`'s fitted state — nodes, depth, captured membership —
  /// into this tree, reusing this tree's buffers (allocation-free once
  /// capacity covers `src`; the engines call this once per simulated
  /// branch). Options must match; the fit scratch is not copied.
  void assign_fitted(const DecisionTree& src);

  /// Serializes the fitted state — node arrays, depth, incremental
  /// capture configuration and membership — as one JSON object
  /// (BaggingEnsemble::save_fit embeds one per tree). Leaf values and
  /// variances are written with round-trip precision, so a load_state()ed
  /// tree predicts bitwise identically. Requires fitted().
  void save_state(util::JsonWriter& w) const;

  /// Restores a save_state() object into this tree (options are NOT
  /// serialized — the same-factory contract of assign_fitted applies).
  /// Throws std::runtime_error on a malformed or inconsistent state.
  void load_state(const util::JsonValue& v);

  [[nodiscard]] bool fitted() const noexcept { return !node_fs_.empty(); }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_fs_.size();
  }
  [[nodiscard]] unsigned depth() const noexcept { return depth_; }

  [[nodiscard]] const TreeOptions& options() const noexcept {
    return options_;
  }

 private:
  /// Serialized `feature` of a leaf.
  static constexpr std::int16_t kLeaf = -1;
  /// Routing word of a leaf: feature 0, threshold 0xFFFF (every code goes
  /// "left", i.e. back to the leaf itself).
  static constexpr std::uint32_t kLeafFs = 0xFFFF;

  /// Fit-time scratch, owned by the tree so consecutive refits (the
  /// lookahead engine refits thousands of times per decision) reuse the
  /// buffers instead of reallocating them.
  struct FitScratch {
    std::vector<std::uint32_t> idx;  ///< row ids, partitioned in place
    std::vector<double> y;           ///< targets, kept parallel to idx
    std::vector<std::uint32_t> cnt;  ///< per-level counts (split search)
    std::vector<double> sum;         ///< per-level target sums
    std::vector<std::uint64_t> occ;  ///< per-feature occupied-level bits
    // One feature's threshold candidates: level, left count and sum, score.
    std::vector<std::uint16_t> cand_code;
    std::vector<std::uint32_t> cand_n;
    std::vector<double> cand_sum;
    std::vector<double> cand_score;
    std::vector<std::uint16_t> feature_order;  ///< feature-subset sampling
    std::size_t cols = 0;    ///< feature count the buffers are sized for
    std::size_t stride = 0;  ///< level slots per feature (max level count)

    /// Sizes the buffers for `cols` features of up to `stride` levels.
    /// Grows only: new buckets are zero and the scan leaves every bucket
    /// and occupancy word zero, so nothing is refilled per fit.
    void size_for(std::size_t cols, std::size_t stride);
  };

  struct BuildCtx;
  /// Builds the subtree over rows [begin, end) at `depth` and returns its
  /// root index. Bit f of `constant` (f < 64) marks feature f as constant
  /// on these rows (file comment, inherited constants).
  std::int32_t build(BuildCtx& ctx, std::size_t begin, std::size_t end,
                     unsigned depth, std::uint64_t constant);
  /// Resets `scratch_` for a build over the samples (rows, y).
  BuildCtx start_build(const FeatureMatrix& fm, util::Rng& rng,
                       const std::vector<std::uint32_t>& rows,
                       const std::vector<double>& y);

  /// Dense batch path: routes the batch planned in `s` (plan_batch) through
  /// the flat arrays as row bitmasks intersected with the FeatureMatrix's
  /// precomputed level masks (a split costs mask_words() word-ANDs instead
  /// of one comparison per row), invoking `leaf(node_index, row_mask)` once
  /// per reached leaf with the mask of the batch rows that landed there.
  template <class LeafFn>
  void dense_walk(const FeatureMatrix& fm, PredictScratch& s,
                  const LeafFn& leaf) const;

  /// The dense-walk half of the accumulate entry points: accumulators
  /// indexed by row id (kByRow) or by batch position `pos[row]`.
  template <bool kByRow>
  void accumulate_dense(const FeatureMatrix& fm, double* sum, double* sumsq,
                        double* var_sum, const std::uint32_t* pos,
                        PredictScratch& s) const;

  /// Level-synchronous sweep (always available): after the call,
  /// `s.cur[i]` is the index of the leaf row `rows[i]` lands in (see file
  /// comment — leaves self-loop, so depth() passes suffice).
  void route_level_sync(const FeatureMatrix& fm, const std::uint32_t* rows,
                        std::size_t n, PredictScratch& s) const;

  /// Appends a node with routing word `fs` and leaf statistics (value,
  /// variance), self-looped — a leaf until set_children() is called on it.
  /// Returns its index.
  std::int32_t push_node(std::uint32_t fs, float value, float variance);
  void set_children(std::size_t node, std::int32_t left, std::int32_t right);
  [[nodiscard]] bool is_leaf(std::size_t node) const noexcept {
    return static_cast<std::uint32_t>(node_lr_[node]) == node;
  }
  /// Drops every node.
  void clear_nodes();
  /// Reserves `cap` nodes in every node array.
  void reserve_nodes(std::size_t cap);

  /// Leaf index reached by `row` (the scalar predict() descent).
  [[nodiscard]] std::int32_t find_leaf(const FeatureMatrix& fm,
                                       std::uint32_t row) const noexcept;

  /// Pre-reserves nodes/membership/scratch capacity so `inc_reserve_`
  /// appends on a fit of `base_samples` samples never reallocate.
  void reserve_incremental(std::size_t base_samples);

  TreeOptions options_;
  unsigned depth_ = 0;
  FitScratch scratch_;

  // The nodes, structure-of-arrays (file comment): packed routing words
  // fs = (feature << 16) | split_code (go left iff code <= split_code) and
  // lr = left | (right << 32), one load each per routed row, plus the leaf
  // mean and target variance (0 for inner nodes). Leaves self-loop
  // (left == right == self, fs == kLeafFs), so routing needs no leaf test;
  // children always follow their parent, so no inner node self-loops.
  std::vector<std::uint32_t> node_fs_;
  std::vector<std::uint64_t> node_lr_;
  std::vector<float> node_value_;
  std::vector<float> node_variance_;

  bool inc_enabled_ = false;
  std::size_t inc_reserve_ = 0;
  std::size_t inc_base_ = 0;  ///< fit-time sample count (reserve anchor)
  // Captured membership (incremental mode only): the fitted training
  // multiset, each sample's current leaf, and every node's depth (the
  // re-split trigger needs both).
  std::vector<std::uint32_t> inc_rows_;
  std::vector<double> inc_y_;
  std::vector<std::int32_t> leaf_of_;
  std::vector<std::uint32_t> node_depth_;
  // append_incremental gather scratch (the updated leaf's members).
  std::vector<std::uint32_t> gather_rows_;
  std::vector<double> gather_y_;
};

}  // namespace lynceus::model
