#include "model/bagging.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace lynceus::model {

unsigned BaggingOptions::weka_features_per_split(std::size_t d) {
  if (d <= 1) return 1;
  return static_cast<unsigned>(
             std::ceil(std::log2(static_cast<double>(d)))) +
         1;
}

BaggingEnsemble::BaggingEnsemble(BaggingOptions options)
    : options_(options) {
  if (options_.trees == 0) {
    throw std::invalid_argument("BaggingEnsemble: need at least one tree");
  }
  // Leaf variances are only consumed in TotalVariance mode; skipping them
  // otherwise saves one pass per leaf in every refit.
  TreeOptions tree_opts = options_.tree;
  tree_opts.leaf_variance =
      options_.variance_mode == VarianceMode::TotalVariance;
  trees_.assign(options_.trees, DecisionTree(tree_opts));
  // Pre-size the scratch slot list to its lifetime bound (one slot per
  // predict chunk; see the member comment) so no batch entry point ever
  // grows it after construction — part of the allocation-free steady
  // state the engines assert via the alloc-count hooks.
  predict_scratch_.resize(
      options_.predict_pool != nullptr
          ? options_.predict_pool->worker_count() + 1
          : 1);
}

void BaggingEnsemble::fit(const FeatureMatrix& fm,
                          const std::vector<std::uint32_t>& rows,
                          const std::vector<double>& y, std::uint64_t seed) {
  if (rows.empty() || rows.size() != y.size()) {
    throw std::invalid_argument(
        "BaggingEnsemble::fit: rows and y must be non-empty and equal-sized");
  }
  const std::size_t n = rows.size();
  util::Rng rng(util::derive_seed(seed, 0xBA661D6));

  double lo = y[0];
  double hi = y[0];
  for (double v : y) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  y_lo_ = lo;
  y_hi_ = hi;
  stddev_floor_ = std::max(hi - lo, std::abs(hi)) * options_.min_stddev_rel;
  if (stddev_floor_ <= 0.0) stddev_floor_ = options_.min_stddev_rel;

  boot_rows_.resize(n);
  boot_y_.resize(n);
  for (auto& tree : trees_) {
    // Bootstrap resample: n draws with replacement.
    for (std::size_t i = 0; i < n; ++i) {
      const auto j = static_cast<std::size_t>(rng.below(n));
      boot_rows_[i] = rows[j];
      boot_y_[i] = y[j];
    }
    tree.fit(fm, boot_rows_, boot_y_, rng);
  }
  fitted_ = true;
}

Prediction BaggingEnsemble::finalize(double sum, double sumsq,
                                     double var_sum) const noexcept {
  const auto b = static_cast<double>(trees_.size());
  const double mean = sum / b;
  double var = 0.0;
  if (trees_.size() > 1) {
    var = std::max(0.0, (sumsq - sum * sum / b) / (b - 1.0));
  }
  if (options_.variance_mode == VarianceMode::TotalVariance) {
    var += var_sum / b;  // law of total variance: + E[within-leaf variance]
  }
  return {mean, std::max(std::sqrt(var), stddev_floor_)};
}

Prediction BaggingEnsemble::predict(const FeatureMatrix& fm,
                                    std::uint32_t row) const {
  if (!fitted_) throw std::logic_error("BaggingEnsemble::predict: not fitted");
  double sum = 0.0;
  double sumsq = 0.0;
  double var_sum = 0.0;
  const bool total = options_.variance_mode == VarianceMode::TotalVariance;
  for (const auto& tree : trees_) {
    if (total) {
      const auto stats = tree.predict_stats(fm, row);
      sum += stats.mean;
      sumsq += stats.mean * stats.mean;
      var_sum += stats.variance;
    } else {
      const double v = tree.predict(fm, row);
      sum += v;
      sumsq += v * v;
    }
  }
  return finalize(sum, sumsq, var_sum);
}

void BaggingEnsemble::predict_rows(const FeatureMatrix& fm,
                                   const std::uint32_t* rows, std::size_t n,
                                   Prediction* out, PredictScratch& s) const {
  const bool total = options_.variance_mode == VarianceMode::TotalVariance;
  // Capacity-warm to the space bound, not just this batch: scratch is
  // per-ensemble now, and a workspace model may well see its largest
  // batch only after the engines' warm-up pass. Any in-space batch
  // (n <= rows; engine subsets are duplicate-free) then never allocates.
  const std::size_t cap = std::max(n, fm.rows());
  s.sum.reserve(cap);
  s.sumsq.reserve(cap);
  s.var_sum.reserve(cap);
  // Also warm the id list only predict_all's chunks fill through this
  // slot: which entry point a slot serves first can change between
  // warm-up and steady state.
  s.ids.reserve(cap);
  // Tree-major sweep, each tree batching the whole row list (level-mask
  // walk or level-sync sweep over the flat layout) so every tree node is
  // visited once instead of once per row. The trees share options, so the
  // batch is planned — route chosen, row mask built — once for all of
  // them. The dense route accumulates by row id; only the requested rows
  // are finalized. The per-row accumulation order over trees matches the
  // scalar predict() loop, so results are bitwise identical.
  trees_.front().plan_batch(fm, rows, n, s);
  const bool by_row = s.dense && rows != nullptr;
  const std::size_t span = s.dense ? fm.rows() : n;
  s.sum.assign(span, 0.0);
  s.sumsq.assign(span, 0.0);
  s.var_sum.assign(span, 0.0);
  for (const auto& tree : trees_) {
    tree.accumulate_planned(fm, rows, n, s.sum.data(), s.sumsq.data(),
                            total ? s.var_sum.data() : nullptr, s);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = by_row ? rows[i] : i;
    out[i] = finalize(s.sum[k], s.sumsq[k], s.var_sum[k]);
  }
}

void BaggingEnsemble::ensure_scratch(std::size_t chunks) const {
  if (predict_scratch_.size() < chunks) predict_scratch_.resize(chunks);
}

namespace {

/// Number of contiguous chunks predict_all/predict_subset split a batch
/// of `n` rows into (one per pool worker plus the calling thread).
std::size_t chunk_count(util::ThreadPool* pool, std::size_t n) {
  return pool != nullptr ? std::min(n, pool->worker_count() + 1) : 1;
}

/// Splits `[0, n)` into `chunks` near-equal contiguous ranges and runs
/// `body(chunk, begin, end)` for each on the pool. Chunk boundaries depend
/// only on (n, chunks), and rows keep their positions, so parallel results
/// are bitwise identical to sequential ones. Templated so the common
/// pool-less call stays allocation-free (no std::function wrapping).
template <class Body>
void chunked_parallel(util::ThreadPool* pool, std::size_t n,
                      std::size_t chunks, const Body& body) {
  if (chunks <= 1) {
    body(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  util::maybe_parallel_for(pool, chunks, [&](std::size_t c) {
    const std::size_t begin = n * c / chunks;
    const std::size_t end = n * (c + 1) / chunks;
    if (begin < end) body(c, begin, end);
  });
}

}  // namespace

void BaggingEnsemble::predict_all(const FeatureMatrix& fm,
                                  std::vector<Prediction>& out) const {
  if (!fitted_) {
    throw std::logic_error("BaggingEnsemble::predict_all: not fitted");
  }
  const std::size_t m = fm.rows();
  out.resize(m);
  const std::size_t chunks = chunk_count(options_.predict_pool, m);
  ensure_scratch(chunks);
  chunked_parallel(options_.predict_pool, m, chunks,
                   [&](std::size_t c, std::size_t begin, std::size_t end) {
                     PredictScratch& s = predict_scratch_[c];
                     s.ids.reserve(m);
                     s.ids.resize(end - begin);
                     for (std::size_t i = begin; i < end; ++i) {
                       s.ids[i - begin] = static_cast<std::uint32_t>(i);
                     }
                     predict_rows(fm, begin == 0 && end == m ? nullptr
                                                             : s.ids.data(),
                                  end - begin, out.data() + begin, s);
                   });
}

void BaggingEnsemble::predict_subset(const FeatureMatrix& fm,
                                     const std::vector<std::uint32_t>& ids,
                                     std::vector<Prediction>& out) const {
  if (!fitted_) {
    throw std::logic_error("BaggingEnsemble::predict_subset: not fitted");
  }
  out.resize(ids.size());
  // A dense subset — typical for the lookahead engines' first levels —
  // takes the level-mask walk restricted to its own rows (plan_batch), so
  // only the requested rows are accumulated and finalized.
  const std::size_t chunks = chunk_count(options_.predict_pool, ids.size());
  ensure_scratch(chunks);
  chunked_parallel(options_.predict_pool, ids.size(), chunks,
                   [&](std::size_t c, std::size_t begin, std::size_t end) {
                     predict_rows(fm, ids.data() + begin, end - begin,
                                  out.data() + begin, predict_scratch_[c]);
                   });
}

namespace {

/// Stream id separating incremental-update rng draws from every other
/// derive_seed consumer (fit seeds use raw branch seeds; see
/// core/lookahead.hpp "Incremental-refit determinism contract").
constexpr std::uint64_t kIncrementalStream = 0x1C2E5EEDULL;

}  // namespace

bool BaggingEnsemble::enable_incremental(unsigned reserve_appends) {
  inc_enabled_ = true;
  // poisson1() caps at 12 copies per append, so this per-tree reserve is a
  // hard bound — appends after a fit never reallocate.
  const std::size_t per_tree = static_cast<std::size_t>(reserve_appends) * 12;
  for (auto& tree : trees_) tree.set_incremental(true, per_tree);
  return true;
}

bool BaggingEnsemble::incremental_ready() const {
  return fitted_ && inc_enabled_ && trees_.front().has_membership();
}

bool BaggingEnsemble::append_and_update(const FeatureMatrix& fm,
                                        std::uint32_t row, double y,
                                        std::uint64_t update_seed) {
  if (!incremental_ready()) return false;
  // Maintain the target range so the stddev floor tracks what a
  // from-scratch fit of the extended sample set would compute.
  y_lo_ = std::min(y_lo_, y);
  y_hi_ = std::max(y_hi_, y);
  stddev_floor_ =
      std::max(y_hi_ - y_lo_, std::abs(y_hi_)) * options_.min_stddev_rel;
  if (stddev_floor_ <= 0.0) stddev_floor_ = options_.min_stddev_rel;

  const std::uint64_t base = util::derive_seed(update_seed, kIncrementalStream);
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    util::Rng rng(util::derive_seed(base, t));
    const unsigned copies = rng.poisson1();
    for (unsigned c = 0; c < copies; ++c) {
      trees_[t].append_incremental(fm, row, y, rng);
    }
  }
  return true;
}

bool BaggingEnsemble::assign_fitted(const Regressor& src) {
  const auto* other = dynamic_cast<const BaggingEnsemble*>(&src);
  if (other == nullptr || other->trees_.size() != trees_.size()) return false;
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    trees_[t].assign_fitted(other->trees_[t]);
  }
  fitted_ = other->fitted_;
  stddev_floor_ = other->stddev_floor_;
  y_lo_ = other->y_lo_;
  y_hi_ = other->y_hi_;
  return true;
}

std::unique_ptr<Regressor> BaggingEnsemble::fresh() const {
  return std::make_unique<BaggingEnsemble>(options_);
}

std::unique_ptr<Regressor> BaggingEnsemble::clone() const {
  return std::make_unique<BaggingEnsemble>(*this);
}

bool BaggingEnsemble::save_fit(util::JsonWriter& w) const {
  if (!fitted_) return false;
  w.begin_object();
  w.key("model").value("bagging");
  w.key("trees").value(static_cast<std::uint64_t>(trees_.size()));
  w.key("total_variance")
      .value(options_.variance_mode == VarianceMode::TotalVariance);
  w.key("inc_enabled").value(inc_enabled_);
  w.key("stddev_floor").value_exact(stddev_floor_);
  w.key("y_lo").value_exact(y_lo_);
  w.key("y_hi").value_exact(y_hi_);
  w.key("tree_states").begin_array();
  for (const DecisionTree& tree : trees_) tree.save_state(w);
  w.end_array();
  w.end_object();
  return true;
}

bool BaggingEnsemble::load_fit(const util::JsonValue& v) {
  if (v.at("model").as_string() != "bagging") {
    throw std::runtime_error(
        "BaggingEnsemble::load_fit: state was saved by a different model");
  }
  if (v.at("trees").as_uint() != trees_.size() ||
      v.at("total_variance").as_bool() !=
          (options_.variance_mode == VarianceMode::TotalVariance)) {
    throw std::runtime_error(
        "BaggingEnsemble::load_fit: structural signature mismatch (load "
        "into an ensemble built by the same ModelFactory)");
  }
  const util::JsonValue& tree_states = v.at("tree_states");
  if (tree_states.size() != trees_.size()) {
    throw std::runtime_error(
        "BaggingEnsemble::load_fit: tree count mismatch");
  }
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    trees_[t].load_state(tree_states.at(t));
  }
  inc_enabled_ = v.at("inc_enabled").as_bool();
  stddev_floor_ = v.at("stddev_floor").as_double();
  y_lo_ = v.at("y_lo").as_double();
  y_hi_ = v.at("y_hi").as_double();
  fitted_ = true;
  return true;
}

}  // namespace lynceus::model
