#pragma once

/// \file bagging.hpp
/// Bagging ensemble of randomized regression trees — Lynceus' default cost
/// model (paper §3 & §5.2: "Lynceus and BO use a bagging ensemble of 10
/// random trees to build the job cost model", in the style of SMAC and
/// auto-WEKA [29, 50]).
///
/// Each tree trains on a bootstrap resample of the training set; the
/// ensemble's predictive distribution at x is the Gaussian
/// N(mean of tree outputs, stddev of tree outputs), which is what the
/// constrained-EI acquisition assumes (paper §3, "Regression model").

#include <cstdint>
#include <vector>

#include "model/decision_tree.hpp"
#include "model/regressor.hpp"

namespace lynceus::util {
class ThreadPool;
}

namespace lynceus::model {

/// How the ensemble turns per-tree outputs into a predictive variance.
enum class VarianceMode {
  /// Variance of the tree means (plain bagging spread — the paper's
  /// formulation, §3).
  BetweenTrees,
  /// SMAC-style law of total variance: E[leaf variance] + Var[leaf means].
  /// Adds the within-leaf residual spread, which keeps uncertainty from
  /// collapsing when all trees agree on a noisy region.
  TotalVariance,
};

struct BaggingOptions {
  /// Ensemble size. Paper default: 10.
  unsigned trees = 10;
  TreeOptions tree;
  VarianceMode variance_mode = VarianceMode::BetweenTrees;
  /// Relative floor on the predictive stddev, as a fraction of the
  /// training-target range. A pure tree ensemble predicts zero variance
  /// where all trees agree, which would make EI collapse and the
  /// feasibility probabilities degenerate; a small floor keeps the
  /// Gaussian assumption usable (standard SMAC practice).
  double min_stddev_rel = 1e-6;
  /// Optional parallelism for predict_all()/predict_subset(): the row list
  /// is split into one contiguous chunk per worker and each chunk runs the
  /// full tree sweep independently. Per-row accumulation order is
  /// unchanged, so results are bitwise identical to the sequential path.
  /// Null = sequential (the default; the Lynceus engine already
  /// parallelizes across root candidates). Not owned.
  util::ThreadPool* predict_pool = nullptr;

  /// Weka RandomTree's default feature-subset size for `d` features.
  [[nodiscard]] static unsigned weka_features_per_split(std::size_t d);
};

class BaggingEnsemble final : public Regressor {
 public:
  explicit BaggingEnsemble(BaggingOptions options = {});

  void fit(const FeatureMatrix& fm, const std::vector<std::uint32_t>& rows,
           const std::vector<double>& y, std::uint64_t seed) override;

  [[nodiscard]] Prediction predict(const FeatureMatrix& fm,
                                   std::uint32_t row) const override;

  void predict_all(const FeatureMatrix& fm,
                   std::vector<Prediction>& out) const override;

  /// Batched subset prediction over `ids` (see Regressor::predict_subset).
  /// Uses the same flat-layout batch routes as predict_all restricted to
  /// the given rows; allocation-free after warm-up.
  void predict_subset(const FeatureMatrix& fm,
                      const std::vector<std::uint32_t>& ids,
                      std::vector<Prediction>& out) const override;

  [[nodiscard]] std::unique_ptr<Regressor> fresh() const override;

  /// Deep copy including the fitted trees (trees and options are plain
  /// data, so the copy predicts bitwise identically). Captured incremental
  /// membership is part of the copy, so a clone of an incremental-ready
  /// ensemble is itself incremental-ready.
  [[nodiscard]] std::unique_ptr<Regressor> clone() const override;

  /// --- Incremental refit (Oza–Russell online bagging; the model-layer
  /// --- half of ROADMAP "Incremental ensemble refit").
  ///
  /// enable_incremental() makes subsequent fits capture each tree's
  /// bootstrap membership. append_and_update(sample) then mimics drawing a
  /// fresh bootstrap of the extended training set without refitting: per
  /// tree, the appended sample enters the tree's bootstrap k ~ Poisson(1)
  /// times (the online-bagging limit of Binomial(n, 1/n) resampling) and
  /// the tree updates in place — leaf statistics recomputed, the touched
  /// leaf re-split where the split decision changes. Deterministic given
  /// (fitted state, update_seed): per tree t the draw stream is
  /// Rng(derive_seed(derive_seed(update_seed, kIncrementalStream), t)),
  /// one independent stream per tree, consumed by the Poisson draw first
  /// and the re-split feature subsetting after. Approximate relative to a
  /// from-scratch fit (not bitwise; see the differential test suite), but
  /// repeatable bit-for-bit.
  bool enable_incremental(unsigned reserve_appends) override;
  [[nodiscard]] bool incremental_ready() const override;
  bool append_and_update(const FeatureMatrix& fm, std::uint32_t row,
                         double y, std::uint64_t update_seed) override;
  /// Reads `src` through const state only (trees, floor, target range):
  /// many per-worker destinations may assign from one shared fitted source
  /// concurrently, which the branch-parallel lookahead engines rely on.
  bool assign_fitted(const Regressor& src) override;

  /// Fit-state serialization (see Regressor::save_fit/load_fit): every
  /// tree's node arrays + captured incremental membership, the stddev
  /// floor and the fitted target range, with round-trip number precision.
  /// A load_fit()ed ensemble predicts — and, when membership was
  /// captured, append_and_update()s — bitwise identically to the saved
  /// one. load_fit verifies the structural signature (tree count,
  /// variance mode) and throws std::runtime_error on a mismatch.
  bool save_fit(util::JsonWriter& w) const override;
  bool load_fit(const util::JsonValue& v) override;

  [[nodiscard]] const BaggingOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] bool fitted() const noexcept { return fitted_; }

 private:
  [[nodiscard]] Prediction finalize(double sum, double sumsq,
                                    double var_sum) const noexcept;

  /// Shared sequential core of predict_all/predict_subset: predicts the
  /// `n` rows `rows[0..n)` (nullptr = identity rows 0..n) into `out[0..n)`
  /// using the scratch slot `s` for the tree walks and accumulators.
  void predict_rows(const FeatureMatrix& fm, const std::uint32_t* rows,
                    std::size_t n, Prediction* out, PredictScratch& s) const;

  /// Grows the scratch slot list to `chunks` entries (slot c serves
  /// predict chunk c; the sequential path is chunk 0).
  void ensure_scratch(std::size_t chunks) const;

  BaggingOptions options_;
  std::vector<DecisionTree> trees_;
  bool fitted_ = false;
  bool inc_enabled_ = false;
  double stddev_floor_ = 0.0;
  // Fitted target range (min/max over the base samples), maintained across
  // incremental appends so stddev_floor_ tracks the from-scratch formula.
  double y_lo_ = 0.0;
  double y_hi_ = 0.0;
  // Scratch reused across fits to avoid per-fit allocation (hot path).
  std::vector<std::uint32_t> boot_rows_;
  std::vector<double> boot_y_;
  // Prediction scratch, owned by the ensemble instead of thread_local
  // (which kept one copy per worker thread alive forever): one slot per
  // predict chunk — slot 0 for the sequential path, one per pool chunk
  // otherwise — bounded by predict_pool->worker_count()+1 and released
  // with the ensemble. Mutable because prediction is logically const. The
  // batch entry points of a single ensemble must not be called
  // concurrently (the engines predict from per-workspace models; the
  // pool's chunks index distinct slots).
  mutable std::vector<PredictScratch> predict_scratch_;
};

}  // namespace lynceus::model
