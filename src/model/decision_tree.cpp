#include "model/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(LYNCEUS_SIMD) && defined(__x86_64__)
// Explicit AVX2 routing kernel (route_levels_avx2 below). The kernel is
// compiled via the `target` function attribute, so this TU needs no global
// -mavx2 and the binary stays runnable on non-AVX2 hosts — a runtime CPU
// check selects the scalar sweep there.
#define LYNCEUS_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace lynceus::model {

DecisionTree::DecisionTree(TreeOptions options) : options_(options) {}

/// Upper bound on features statted per fused split-scan pass (bounds the
/// scan's stack arrays; wider spaces just take several passes).
static constexpr std::size_t kMaxFeatures = 64;

/// Thin view over the fm/rng and the tree-owned FitScratch buffers (the
/// vectors live in `scratch_` so refits reuse their capacity).
struct DecisionTree::BuildCtx {
  const FeatureMatrix* fm = nullptr;
  util::Rng* rng = nullptr;
  // Parallel arrays, partitioned in place as the tree grows.
  std::vector<std::uint32_t>& idx;
  std::vector<double>& y;
  // Per-(feature, level) scratch for the fused split scan, reused across
  // nodes (sized cols * max_level_count). Invariant: every bucket is zero
  // between scans — fit() and append_incremental() zero the whole buffer
  // before build(), and each scan zeroes the buckets it filled.
  std::vector<std::uint32_t>& cnt;
  std::vector<double>& sum;
  // Feature-subset scratch.
  std::vector<std::uint16_t>& feature_order;

  explicit BuildCtx(FitScratch& s)
      : idx(s.idx), y(s.y), cnt(s.cnt), sum(s.sum),
        feature_order(s.feature_order) {}
};

void DecisionTree::fit(const FeatureMatrix& fm,
                       const std::vector<std::uint32_t>& rows,
                       const std::vector<double>& y, util::Rng& rng) {
  if (rows.empty() || rows.size() != y.size()) {
    throw std::invalid_argument(
        "DecisionTree::fit: rows and y must be non-empty and equal-sized");
  }
  nodes_.clear();
  node_depth_.clear();
  depth_ = 0;
  nodes_.reserve(2 * rows.size());
  if (inc_enabled_) {
    inc_base_ = rows.size();
    reserve_incremental(inc_base_);
  }

  BuildCtx ctx(scratch_);
  ctx.fm = &fm;
  ctx.rng = &rng;
  ctx.idx.assign(rows.begin(), rows.end());
  ctx.y.assign(y.begin(), y.end());
  ctx.cnt.assign(fm.cols() * fm.max_level_count(), 0);
  ctx.sum.assign(fm.cols() * fm.max_level_count(), 0.0);
  ctx.feature_order.resize(fm.cols());
  for (std::size_t d = 0; d < fm.cols(); ++d) {
    ctx.feature_order[d] = static_cast<std::uint16_t>(d);
  }

  build(ctx, 0, ctx.idx.size(), 0);

  if (inc_enabled_) {
    // Capture the membership for append_incremental: the training multiset
    // plus each sample's leaf (the fit's in-place partition destroys the
    // original order, so samples are re-routed — O(n · depth)).
    inc_rows_.assign(rows.begin(), rows.end());
    inc_y_.assign(y.begin(), y.end());
    leaf_of_.resize(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      leaf_of_[i] = find_leaf(fm, rows[i]);
    }
  }
  rebuild_flat();
}

void DecisionTree::rebuild_flat() {
  const std::size_t n = nodes_.size();
  // Track the AoS capacity, not just the current size: nodes_ carries
  // geometric-growth slack across fits and assign_fitted, so a slightly
  // bigger tree landing in a warmed model grows nodes_ for free — the
  // flat mirror must not reallocate in that case either (steady state is
  // asserted allocation-free).
  const std::size_t cap = nodes_.capacity();
  flat_feature_.reserve(cap);
  flat_split_.reserve(cap);
  flat_left_.reserve(cap);
  flat_right_.reserve(cap);
  flat_value_.reserve(cap);
  flat_variance_.reserve(cap);
  flat_fs_.reserve(cap);
  flat_lr_.reserve(cap);
  flat_feature_.resize(n);
  flat_split_.resize(n);
  flat_left_.resize(n);
  flat_right_.resize(n);
  flat_value_.resize(n);
  flat_variance_.resize(n);
  flat_fs_.resize(n);
  flat_lr_.resize(n);
  for (std::size_t i = 0; i < n; ++i) refresh_flat_node(i);
}

void DecisionTree::refresh_flat_node(std::size_t i) {
  const Node& nd = nodes_[i];
  if (nd.feature == kLeaf) {
    // Leaf self-loop: every code is <= 0xFFFF, so the level-sync route
    // keeps the row parked on this node for the remaining passes.
    flat_feature_[i] = 0;
    flat_split_[i] = 0xFFFF;
    flat_left_[i] = static_cast<std::int32_t>(i);
    flat_right_[i] = static_cast<std::int32_t>(i);
  } else {
    flat_feature_[i] = nd.feature;
    flat_split_[i] = nd.split_code;
    flat_left_[i] = nd.left;
    flat_right_[i] = nd.right;
  }
  flat_value_[i] = nd.value;
  flat_variance_[i] = nd.variance;
  flat_fs_[i] =
      (static_cast<std::uint32_t>(flat_feature_[i]) << 16) |
      static_cast<std::uint32_t>(flat_split_[i]);
  flat_lr_[i] =
      static_cast<std::uint32_t>(flat_left_[i]) |
      (static_cast<std::uint64_t>(
           static_cast<std::uint32_t>(flat_right_[i]))
       << 32);
}

void DecisionTree::set_incremental(bool on, std::size_t reserve_extra) {
  inc_enabled_ = on;
  inc_reserve_ = on ? reserve_extra : 0;
  if (!on) {
    inc_rows_.clear();
    inc_y_.clear();
    leaf_of_.clear();
    node_depth_.clear();
  }
}

void DecisionTree::reserve_incremental(std::size_t base_samples) {
  const std::size_t n = base_samples + inc_reserve_;
  // Base fit builds <= 2n-1 nodes; every append may rebuild one leaf's
  // subtree over <= n members (<= 2n-1 fresh nodes, one orphaned slot).
  const std::size_t node_bound = 2 * n * (inc_reserve_ + 1) + inc_reserve_ + 2;
  nodes_.reserve(node_bound);
  node_depth_.reserve(node_bound);
  // The flat mirror is refreshed after every append; reserving it by the
  // same bound keeps the refresh allocation-free.
  flat_feature_.reserve(node_bound);
  flat_split_.reserve(node_bound);
  flat_left_.reserve(node_bound);
  flat_right_.reserve(node_bound);
  flat_value_.reserve(node_bound);
  flat_variance_.reserve(node_bound);
  inc_rows_.reserve(n);
  inc_y_.reserve(n);
  leaf_of_.reserve(n);
  gather_rows_.reserve(n);
  gather_y_.reserve(n);
  scratch_.idx.reserve(n);
  scratch_.y.reserve(n);
}

std::int32_t DecisionTree::find_leaf(const FeatureMatrix& fm,
                                     std::uint32_t row) const noexcept {
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature != kLeaf) {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    node = fm.code(row, static_cast<std::size_t>(nd.feature)) <= nd.split_code
               ? nd.left
               : nd.right;
  }
  return node;
}

void DecisionTree::append_incremental(const FeatureMatrix& fm,
                                      std::uint32_t row, double y,
                                      util::Rng& rng) {
  if (!has_membership()) {
    throw std::logic_error(
        "DecisionTree::append_incremental: no captured membership");
  }
  const std::int32_t leaf = find_leaf(fm, row);
  inc_rows_.push_back(row);
  inc_y_.push_back(y);
  leaf_of_.push_back(leaf);

  // Gather the leaf's member multiset (including the new sample).
  gather_rows_.clear();
  gather_y_.clear();
  for (std::size_t i = 0; i < inc_rows_.size(); ++i) {
    if (leaf_of_[i] == leaf) {
      gather_rows_.push_back(inc_rows_[i]);
      gather_y_.push_back(inc_y_[i]);
    }
  }
  const std::size_t m = gather_rows_.size();
  const unsigned at_depth = node_depth_[static_cast<std::size_t>(leaf)];

  if (m >= options_.min_samples_split && at_depth < options_.max_depth) {
    // Re-split: rebuild the leaf's subtree from scratch over its members,
    // with the identical split search and feature subsetting as fit().
    // build() appends the fresh subtree at the end of `nodes_`; its root is
    // grafted over the old leaf slot (child indices keep pointing into the
    // appended region). A rebuild that finds no informative split produces
    // a single leaf, which is copied over and popped again.
    const std::size_t n_before = nodes_.size();
    BuildCtx ctx(scratch_);
    ctx.fm = &fm;
    ctx.rng = &rng;
    ctx.idx.assign(gather_rows_.begin(), gather_rows_.end());
    ctx.y.assign(gather_y_.begin(), gather_y_.end());
    ctx.cnt.assign(fm.cols() * fm.max_level_count(), 0);
    ctx.sum.assign(fm.cols() * fm.max_level_count(), 0.0);
    ctx.feature_order.resize(fm.cols());
    for (std::size_t d = 0; d < fm.cols(); ++d) {
      ctx.feature_order[d] = static_cast<std::uint16_t>(d);
    }
    const std::int32_t sub = build(ctx, 0, ctx.idx.size(), at_depth);
    nodes_[static_cast<std::size_t>(leaf)] = nodes_[static_cast<std::size_t>(sub)];
    if (nodes_[static_cast<std::size_t>(leaf)].feature == kLeaf) {
      nodes_.pop_back();  // degenerate rebuild: drop the orphan leaf slot
      node_depth_.pop_back();
    } else {
      // The subtree's members moved to fresh leaves below `leaf`.
      for (std::size_t i = 0; i < inc_rows_.size(); ++i) {
        if (leaf_of_[i] == leaf) leaf_of_[i] = find_leaf(fm, inc_rows_[i]);
      }
    }
    // Patch the mirror instead of rebuilding it: only the grafted slot and
    // the appended subtree changed; every other node's routing words are
    // untouched. Re-splits recur throughout a multi-constraint lookahead
    // (every model clone appends fantasy samples), so an O(nodes) rebuild
    // here compounds into a measurable decision-time regression.
    const std::size_t flat_n = nodes_.size();
    flat_feature_.resize(flat_n);
    flat_split_.resize(flat_n);
    flat_left_.resize(flat_n);
    flat_right_.resize(flat_n);
    flat_value_.resize(flat_n);
    flat_variance_.resize(flat_n);
    flat_fs_.resize(flat_n);
    flat_lr_.resize(flat_n);
    refresh_flat_node(static_cast<std::size_t>(leaf));
    for (std::size_t i = n_before; i < flat_n; ++i) refresh_flat_node(i);
    return;
  }

  // Leaf-statistics update: the exact (mean, variance) a from-scratch fit
  // would record for this member multiset.
  double sum = 0.0;
  for (double v : gather_y_) sum += v;
  const double mean = sum / static_cast<double>(m);
  Node& nd = nodes_[static_cast<std::size_t>(leaf)];
  nd.value = static_cast<float>(mean);
  if (options_.leaf_variance) {
    double sq = 0.0;
    for (double v : gather_y_) {
      const double d = v - mean;
      sq += d * d;
    }
    nd.variance = static_cast<float>(sq / static_cast<double>(m));
  }
  // Patch, don't rebuild: only this leaf's (value, variance) changed, and
  // neither lives in the packed routing words — an O(1) mirror update.
  // (A full rebuild_flat() here costs O(nodes) on *every* fantasy append
  // and measurably regressed incremental multi-constraint decisions; the
  // rare re-split path above still rebuilds, since it rewires topology.)
  flat_value_[static_cast<std::size_t>(leaf)] = nd.value;
  flat_variance_[static_cast<std::size_t>(leaf)] = nd.variance;
}

void DecisionTree::assign_fitted(const DecisionTree& src) {
  if (inc_enabled_) {
    // Reserve by the source's *fit-time* base size, not its current
    // membership: the bound is then identical for every copy of one root
    // fit, so no assignment after the first can outgrow the buffers (the
    // zero-allocation guarantee of the incremental engines).
    inc_base_ = src.inc_base_ != 0 ? src.inc_base_ : src.inc_rows_.size();
    reserve_incremental(inc_base_);
  }
  nodes_.assign(src.nodes_.begin(), src.nodes_.end());
  depth_ = src.depth_;
  inc_rows_.assign(src.inc_rows_.begin(), src.inc_rows_.end());
  inc_y_.assign(src.inc_y_.begin(), src.inc_y_.end());
  leaf_of_.assign(src.leaf_of_.begin(), src.leaf_of_.end());
  node_depth_.assign(src.node_depth_.begin(), src.node_depth_.end());
  // Propagate the split-scan scratch sizing: a tree that only ever
  // receives assign_fitted() (the engines' per-level branch models) never
  // runs fit(), so without this its first re-splitting append would size
  // cnt/sum/feature_order on the spot and allocate. The source chain
  // always starts at a fit() tree, whose scratch holds the
  // cols x max_level_count layout to copy forward.
  if (scratch_.cnt.size() < src.scratch_.cnt.size()) {
    scratch_.cnt.resize(src.scratch_.cnt.size());
  }
  if (scratch_.sum.size() < src.scratch_.sum.size()) {
    scratch_.sum.resize(src.scratch_.sum.size());
  }
  if (scratch_.feature_order.size() < src.scratch_.feature_order.size()) {
    scratch_.feature_order.resize(src.scratch_.feature_order.size());
  }
  // The mirror is a pure function of nodes_, which was just copied verbatim
  // — so copy the source's (always-current) mirror too instead of deriving
  // it again. assign_fitted runs once per model clone inside every
  // incremental lookahead branch, and the contiguous copies here are
  // several times cheaper than rebuild_flat()'s per-node scalar loop.
  // Reserve to the AoS capacity first so the mirror keeps matching nodes_'
  // growth slack (the allocation-free steady-state guarantee).
  const std::size_t cap = nodes_.capacity();
  flat_feature_.reserve(cap);
  flat_split_.reserve(cap);
  flat_left_.reserve(cap);
  flat_right_.reserve(cap);
  flat_value_.reserve(cap);
  flat_variance_.reserve(cap);
  flat_fs_.reserve(cap);
  flat_lr_.reserve(cap);
  flat_feature_.assign(src.flat_feature_.begin(), src.flat_feature_.end());
  flat_split_.assign(src.flat_split_.begin(), src.flat_split_.end());
  flat_left_.assign(src.flat_left_.begin(), src.flat_left_.end());
  flat_right_.assign(src.flat_right_.begin(), src.flat_right_.end());
  flat_value_.assign(src.flat_value_.begin(), src.flat_value_.end());
  flat_variance_.assign(src.flat_variance_.begin(), src.flat_variance_.end());
  flat_fs_.assign(src.flat_fs_.begin(), src.flat_fs_.end());
  flat_lr_.assign(src.flat_lr_.begin(), src.flat_lr_.end());
}

std::int32_t DecisionTree::build(BuildCtx& ctx, std::size_t begin,
                                 std::size_t end, unsigned depth) {
  const FeatureMatrix& fm = *ctx.fm;
  const std::size_t n = end - begin;
  depth_ = std::max(depth_, depth);

  // total_sum accumulates the targets in row order. For inner nodes the
  // fused split scan below recomputes exactly this sum alongside the
  // per-level statistics, so the standalone pass only runs for early
  // leaves.
  double total_sum = 0.0;

  auto make_leaf = [&](double node_mean) {
    Node leaf;
    leaf.value = static_cast<float>(node_mean);
    if (options_.leaf_variance) {
      double sq = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const double d = ctx.y[i] - node_mean;
        sq += d * d;
      }
      leaf.variance = static_cast<float>(sq / static_cast<double>(n));
    }
    nodes_.push_back(leaf);
    if (inc_enabled_) node_depth_.push_back(depth);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (n < options_.min_samples_split || depth >= options_.max_depth) {
    for (std::size_t i = begin; i < end; ++i) total_sum += ctx.y[i];
    return make_leaf(total_sum / static_cast<double>(n));
  }

  // Choose the feature subset for this split (Weka RandomTree style).
  std::size_t feature_count = fm.cols();
  if (options_.features_per_split != 0 &&
      options_.features_per_split < fm.cols()) {
    feature_count = options_.features_per_split;
    // Partial Fisher-Yates: the first `feature_count` entries become a
    // uniform random subset.
    for (std::size_t i = 0; i < feature_count; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(ctx.rng->below(fm.cols() - i));
      std::swap(ctx.feature_order[i], ctx.feature_order[j]);
    }
  }

  const std::uint32_t* const idx = ctx.idx.data();
  const double* const yv = ctx.y.data();

  // A node holding only copies of one configuration cannot split: every
  // feature is constant on it, so both scans below would find nothing.
  // Bootstrap resamples make such nodes common. The check runs after the
  // feature draw, so the RNG stream is the one a full scan leaves, and the
  // sum accumulates in row order, as the scan would.
  bool one_config = true;
  for (std::size_t i = begin + 1; i < end && one_config; ++i) {
    one_config = idx[i] == idx[begin];
  }
  if (one_config) {
    for (std::size_t i = begin; i < end; ++i) total_sum += yv[i];
    return make_leaf(total_sum / static_cast<double>(n));
  }

  // Variance-reduction split search. Maximizing
  //   S(split) = s_L^2/n_L + s_R^2/n_R
  // is equivalent to minimizing the summed squared error of the two
  // children, so no sum-of-squares accumulation is needed.
  double best_score = -std::numeric_limits<double>::infinity();
  std::int16_t best_feature = kLeaf;
  std::uint16_t best_code = 0;

  // Fused multi-feature statistics: one pass over the rows accumulates
  // (count, sum) per level for every candidate feature at once — the row's
  // code block is a single contiguous read, and the pass is taken once
  // instead of once per feature. Each (feature, level) bucket still
  // receives its targets in row order, so sums are bitwise identical to a
  // per-feature scan, and the threshold sweep evaluates candidates in the
  // same (feature, code) order.
  //
  // The sweep visits only the occupied levels between a feature's lowest
  // and highest code on this node. That is exact: below the lowest code
  // the left side is empty and from the highest code on the right side
  // is, so no candidate is scored there; an empty level in between adds
  // +0.0 (bucket sums start at +0.0, so they are never -0.0) and repeats
  // the previous candidate's score, which the strict `>` never takes.
  const std::size_t stride = fm.max_level_count();
  auto scan_chunk = [&](std::size_t from, std::size_t to,
                        bool accumulate_total) {
    const std::size_t nf = to - from;
    // Hoist the selected features and their bucket base pointers out of the
    // row loop (the loop is the fit's hottest code).
    std::uint16_t sel[kMaxFeatures];
    std::uint32_t* cntk[kMaxFeatures];
    double* sumk[kMaxFeatures];
    std::uint16_t lo[kMaxFeatures];
    std::uint16_t hi[kMaxFeatures];
    for (std::size_t k = 0; k < nf; ++k) {
      sel[k] = ctx.feature_order[from + k];
      cntk[k] = ctx.cnt.data() + k * stride;
      sumk[k] = ctx.sum.data() + k * stride;
      lo[k] = std::numeric_limits<std::uint16_t>::max();
      hi[k] = 0;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint16_t* row = fm.row_codes(idx[i]);
      const double yi = yv[i];
      if (accumulate_total) total_sum += yi;
      for (std::size_t k = 0; k < nf; ++k) {
        const std::uint16_t c = row[sel[k]];
        ++cntk[k][c];
        sumk[k][c] += yi;
        lo[k] = std::min(lo[k], c);
        hi[k] = std::max(hi[k], c);
      }
    }
    for (std::size_t k = 0; k < nf; ++k) {
      std::uint32_t n_left = 0;
      double s_left = 0.0;
      // Every threshold in [lo, hi) with rows of its own leaves both
      // sides non-empty.
      for (std::uint16_t c = lo[k]; c < hi[k]; ++c) {
        if (cntk[k][c] == 0) continue;
        n_left += cntk[k][c];
        s_left += sumk[k][c];
        const auto n_right = static_cast<double>(n - n_left);
        const double s_right = total_sum - s_left;
        const double score = s_left * s_left / static_cast<double>(n_left) +
                             s_right * s_right / n_right;
        if (score > best_score) {
          best_score = score;
          best_feature = static_cast<std::int16_t>(sel[k]);
          best_code = c;
        }
      }
      // Restore the zero-buckets invariant for the next scan.
      for (std::uint16_t c = lo[k]; c <= hi[k]; ++c) {
        cntk[k][c] = 0;
        sumk[k][c] = 0.0;
      }
    }
  };
  // Candidate features are evaluated in feature_order sequence either way;
  // chunking only bounds the stack arrays for very wide spaces.
  auto scan_features = [&](std::size_t from, std::size_t to,
                           bool accumulate_total) {
    for (std::size_t at = from; at < to; at += kMaxFeatures) {
      scan_chunk(at, std::min(to, at + kMaxFeatures),
                 accumulate_total && at == from);
    }
  };

  scan_features(0, feature_count, /*accumulate_total=*/true);
  const double parent_score = total_sum * total_sum / static_cast<double>(n);
  // If the random subset offered no informative split (all its features
  // constant on this node, or no gain), fall back to the remaining
  // features before giving up — otherwise a 1-feature subset would
  // regularly truncate the tree at nodes other features could still split.
  if (best_score <= parent_score + 1e-12 && feature_count < fm.cols()) {
    scan_features(feature_count, fm.cols(), /*accumulate_total=*/false);
  }

  if (best_feature == kLeaf || best_score <= parent_score + 1e-12) {
    return make_leaf(total_sum / static_cast<double>(n));
  }

  // In-place partition of the parallel arrays.
  std::size_t mid = begin;
  for (std::size_t i = begin; i < end; ++i) {
    if (fm.code(ctx.idx[i], static_cast<std::size_t>(best_feature)) <=
        best_code) {
      std::swap(ctx.idx[i], ctx.idx[mid]);
      std::swap(ctx.y[i], ctx.y[mid]);
      ++mid;
    }
  }

  const auto self = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  if (inc_enabled_) node_depth_.push_back(depth);
  nodes_[self].feature = best_feature;
  nodes_[self].split_code = best_code;
  const std::int32_t left = build(ctx, begin, mid, depth + 1);
  const std::int32_t right = build(ctx, mid, end, depth + 1);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

double DecisionTree::predict(const FeatureMatrix& fm,
                             std::uint32_t row) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict: not fitted");
  }
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature != kLeaf) {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    node = fm.code(row, static_cast<std::size_t>(nd.feature)) <= nd.split_code
               ? nd.left
               : nd.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

DecisionTree::LeafStats DecisionTree::predict_stats(const FeatureMatrix& fm,
                                                    std::uint32_t row) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict_stats: not fitted");
  }
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature != kLeaf) {
    const Node& nd = nodes_[static_cast<std::size_t>(node)];
    node = fm.code(row, static_cast<std::size_t>(nd.feature)) <= nd.split_code
               ? nd.left
               : nd.right;
  }
  const Node& leaf = nodes_[static_cast<std::size_t>(node)];
  return {leaf.value, leaf.variance};
}

template <class LeafFn>
bool DecisionTree::dense_walk(const FeatureMatrix& fm,
                              const std::uint32_t* rows, std::size_t n,
                              PredictScratch& s, const LeafFn& leaf) const {
  const std::size_t words = fm.mask_words();
  if (fm.level_mask(0, 0) == nullptr) return false;
  // A sparse batch routes faster through the level-sync sweep than
  // through full-width mask intersections. (A finer work-estimate cut
  // was tried and reverted: per-node mask costs vary too much across
  // spaces for a single crossover constant — it mis-routed mid-size
  // tensorflow candidate batches and regressed LA decisions up to 1.7×.)
  if (rows != nullptr && n * 4 < fm.rows()) return false;

  const bool identity = rows == nullptr;
  s.root_mask.assign(words, 0);
  if (identity) {
    for (std::size_t r = 0; r < n; r += 64) {
      const std::size_t bits = std::min<std::size_t>(64, n - r);
      s.root_mask[r / 64] =
          bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    }
  } else {
    s.pos_of_row.resize(fm.rows());
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t row = rows[i];
      const std::uint64_t bit = std::uint64_t{1} << (row % 64);
      if ((s.root_mask[row / 64] & bit) != 0) return false;  // duplicate id
      s.root_mask[row / 64] |= bit;
      s.pos_of_row[row] = static_cast<std::uint32_t>(i);
    }
  }

  // Two mask slots per depth: the left child's subtree is fully processed
  // (touching only deeper slots) before the right child's stored mask is
  // popped, so siblings never clobber each other. Sized by the depth *cap*
  // rather than the current depth: an incremental append can deepen the
  // tree after the engines' warm-up pass, and this arena must not
  // reallocate then (the zero-allocation guarantee covers the incremental
  // path too).
  s.arena.resize((static_cast<std::size_t>(options_.max_depth) + 2) * 2 *
                 words);
  s.stack.reserve(2 * (static_cast<std::size_t>(options_.max_depth) + 2));
  const auto slot = [&](std::uint32_t depth, std::uint32_t side) {
    return s.arena.data() +
           (static_cast<std::size_t>(depth) * 2 + side) * words;
  };
  const auto encode = [](std::int32_t node, std::uint32_t depth,
                         std::uint32_t side) {
    return (static_cast<std::int64_t>(node) << 32) |
           (static_cast<std::int64_t>(depth) << 1) | side;
  };
  std::copy(s.root_mask.begin(), s.root_mask.end(), slot(0, 0));
  s.stack.clear();
  s.stack.push_back(encode(0, 0, 0));
  while (!s.stack.empty()) {
    const std::int64_t e = s.stack.back();
    s.stack.pop_back();
    const auto node = static_cast<std::int32_t>(e >> 32);
    const auto depth = static_cast<std::uint32_t>((e & 0xFFFFFFFF) >> 1);
    const auto side = static_cast<std::uint32_t>(e & 1);
    const std::uint64_t* m = slot(depth, side);
    const auto ni = static_cast<std::size_t>(node);
    if (flat_left_[ni] == node) {  // leaf (self-loop)
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = m[w];
        while (bits != 0) {
          const auto row = static_cast<std::uint32_t>(
              w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
          leaf(identity ? row : s.pos_of_row[row], ni);
          bits &= bits - 1;
        }
      }
      continue;
    }
    const std::uint64_t* fmask =
        fm.level_mask(static_cast<std::size_t>(flat_feature_[ni]),
                      static_cast<std::uint16_t>(flat_split_[ni]));
    std::uint64_t* lm = slot(depth + 1, 0);
    std::uint64_t* rm = slot(depth + 1, 1);
    std::uint64_t left_any = 0;
    std::uint64_t right_any = 0;
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t left = m[w] & fmask[w];
      const std::uint64_t right = m[w] & ~fmask[w];
      lm[w] = left;
      rm[w] = right;
      left_any |= left;
      right_any |= right;
    }
    if (right_any != 0) {
      s.stack.push_back(encode(flat_right_[ni], depth + 1, 1));
    }
    if (left_any != 0) {
      s.stack.push_back(encode(flat_left_[ni], depth + 1, 0));
    }
  }
  return true;
}

#ifdef LYNCEUS_SIMD_AVX2

static bool lynceus_avx2_supported() noexcept {
  static const bool ok = __builtin_cpu_supports("avx2") != 0;
  return ok;
}

/// The level-sync routing loop with explicit AVX2 gathers — 8 rows per
/// step, one compare/blend per row per level. Routing is pure integer
/// work, so the landed leaves (and every float read from them) are
/// bitwise identical to the scalar sweep. Compiled via the `target`
/// attribute so the rest of this TU stays baseline-ISA; callers must
/// check lynceus_avx2_supported() first.
__attribute__((target("avx2"))) static void route_levels_avx2(
    const std::uint16_t* codes, const std::uint32_t* row_base, std::size_t n,
    unsigned depth, const std::int32_t* feat, const std::int32_t* split,
    const std::int32_t* left, const std::int32_t* right, std::int32_t* cur) {
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  for (unsigned d = 0; d < depth; ++d) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i vcur =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i));
      const __m256i vfeat = _mm256_i32gather_epi32(feat, vcur, 4);
      const __m256i vsplit = _mm256_i32gather_epi32(split, vcur, 4);
      const __m256i vbase =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_base + i));
      // 32-bit gather at a 16-bit stride reads one code plus two padding
      // bytes (FeatureMatrix::codes() guarantees the tail pad); mask off
      // the high half.
      const __m256i vcode = _mm256_and_si256(
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(codes),
                                 _mm256_add_epi32(vbase, vfeat), 2),
          mask16);
      const __m256i vleft = _mm256_i32gather_epi32(left, vcur, 4);
      const __m256i vright = _mm256_i32gather_epi32(right, vcur, 4);
      // Go right iff code > split; both fit in 16 bits, so the signed
      // 32-bit compare is exact. A leaf's 0xFFFF threshold never
      // compares less than a code, keeping self-loops parked.
      const __m256i go_right = _mm256_cmpgt_epi32(vcode, vsplit);
      const __m256i vnext = _mm256_blendv_epi8(vleft, vright, go_right);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + i), vnext);
    }
    for (; i < n; ++i) {
      const std::int32_t nd = cur[i];
      const std::int32_t c =
          codes[row_base[i] + static_cast<std::uint32_t>(feat[nd])];
      cur[i] = c <= split[nd] ? left[nd] : right[nd];
    }
  }
}

#endif  // LYNCEUS_SIMD_AVX2

void DecisionTree::warm_scratch(const FeatureMatrix& fm, std::size_t n,
                                PredictScratch& s) const {
  // Capacity-warm every batch-route buffer — both the level-sync and the
  // dense-walk set — to the space bound, not just this batch. Scratch is
  // caller-owned (per ensemble, not per thread), and which route a given
  // model takes first can differ between the engines' warm-up pass and
  // steady state; reserving both sets up front makes the first batch with
  // a scratch slot size it for every in-space batch and route.
  const std::size_t cap = std::max(n, fm.rows());
  s.cur.reserve(cap);
  s.row_base.reserve(cap);
  const std::size_t depth_cap =
      2 * (static_cast<std::size_t>(options_.max_depth) + 2);
  s.stack.reserve(depth_cap);
  if (fm.level_mask(0, 0) != nullptr) {
    const std::size_t words = fm.mask_words();
    s.root_mask.reserve(words);
    s.pos_of_row.reserve(fm.rows());
    s.arena.reserve(depth_cap * words);
  }
}

void DecisionTree::route_level_sync(const FeatureMatrix& fm,
                                    const std::uint32_t* rows, std::size_t n,
                                    PredictScratch& s) const {
  s.cur.resize(n);
  std::int32_t* cur = s.cur.data();
  std::fill_n(cur, n, 0);
  if (depth_ == 0) return;  // root-only tree: every row is already home
  const std::uint16_t* codes = fm.codes();
  const std::size_t cols = fm.cols();
#ifdef LYNCEUS_SIMD_AVX2
  if (n >= 8 && lynceus_avx2_supported()) {
    s.row_base.resize(n);
    std::uint32_t* rb = s.row_base.data();
    for (std::size_t i = 0; i < n; ++i) {
      rb[i] = static_cast<std::uint32_t>(
          (rows != nullptr ? rows[i] : i) * cols);
    }
    route_levels_avx2(codes, rb, n, depth_, flat_feature_.data(),
                      flat_split_.data(), flat_left_.data(),
                      flat_right_.data(), cur);
    return;
  }
#endif
  // Branch-free compare/route sweep: no leaf test, no data-dependent
  // branches. The scalar loops read the packed per-node arrays (one
  // 32-bit feature+split load, one 64-bit children load) because the
  // sweep is load-port bound; level 0 is peeled since every row starts
  // at the root, whose fields are loop constants.
  const std::uint32_t* fs = flat_fs_.data();
  const std::uint64_t* lr = flat_lr_.data();
  const std::int32_t f0 = static_cast<std::int32_t>(fs[0] >> 16);
  const std::int32_t s0 = static_cast<std::int32_t>(fs[0] & 0xFFFF);
  const std::int32_t l0 = static_cast<std::int32_t>(lr[0] & 0xFFFFFFFF);
  const std::int32_t r0 = static_cast<std::int32_t>(lr[0] >> 32);
  if (rows == nullptr) {
    std::size_t base0 = 0;
    for (std::size_t i = 0; i < n; ++i, base0 += cols) {
      const std::int32_t c = codes[base0 + static_cast<std::size_t>(f0)];
      cur[i] = c <= s0 ? l0 : r0;
    }
    for (unsigned d = 1; d < depth_; ++d) {
      std::size_t base = 0;
      for (std::size_t i = 0; i < n; ++i, base += cols) {
        const std::int32_t nd = cur[i];
        const std::uint32_t f = fs[nd];
        const std::uint64_t ch = lr[nd];
        const std::int32_t c = codes[base + (f >> 16)];
        cur[i] = static_cast<std::int32_t>(
            c <= static_cast<std::int32_t>(f & 0xFFFF)
                ? (ch & 0xFFFFFFFF)
                : (ch >> 32));
      }
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::int32_t c =
          codes[static_cast<std::size_t>(rows[i]) * cols +
                static_cast<std::size_t>(f0)];
      cur[i] = c <= s0 ? l0 : r0;
    }
    for (unsigned d = 1; d < depth_; ++d) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t nd = cur[i];
        const std::uint32_t f = fs[nd];
        const std::uint64_t ch = lr[nd];
        const std::int32_t c =
            codes[static_cast<std::size_t>(rows[i]) * cols + (f >> 16)];
        cur[i] = static_cast<std::int32_t>(
            c <= static_cast<std::int32_t>(f & 0xFFFF)
                ? (ch & 0xFFFFFFFF)
                : (ch >> 32));
      }
    }
  }
}

void DecisionTree::predict_batch(const FeatureMatrix& fm,
                                 const std::uint32_t* rows, std::size_t n,
                                 float* out_value, float* out_variance,
                                 PredictScratch* scratch) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict_batch: not fitted");
  }
  if (n == 0) return;
  PredictScratch local;
  PredictScratch& s = scratch != nullptr ? *scratch : local;
  warm_scratch(fm, n, s);
  const bool dense =
      out_variance != nullptr
          ? dense_walk(fm, rows, n, s,
                       [&](std::uint32_t pos, std::size_t nd) {
                         out_value[pos] = flat_value_[nd];
                         out_variance[pos] = flat_variance_[nd];
                       })
          : dense_walk(fm, rows, n, s,
                       [&](std::uint32_t pos, std::size_t nd) {
                         out_value[pos] = flat_value_[nd];
                       });
  if (dense) return;
  route_level_sync(fm, rows, n, s);
  const std::int32_t* cur = s.cur.data();
  const float* value = flat_value_.data();
  if (out_variance != nullptr) {
    const float* variance = flat_variance_.data();
    for (std::size_t i = 0; i < n; ++i) {
      out_value[i] = value[cur[i]];
      out_variance[i] = variance[cur[i]];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) out_value[i] = value[cur[i]];
  }
}

void DecisionTree::accumulate_batch(const FeatureMatrix& fm,
                                    const std::uint32_t* rows, std::size_t n,
                                    double* sum, double* sumsq,
                                    double* var_sum,
                                    PredictScratch* scratch) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::accumulate_batch: not fitted");
  }
  if (n == 0) return;
  PredictScratch local;
  PredictScratch& s = scratch != nullptr ? *scratch : local;
  warm_scratch(fm, n, s);
  const bool dense =
      var_sum != nullptr
          ? dense_walk(fm, rows, n, s,
                       [&](std::uint32_t pos, std::size_t nd) {
                         const double v = flat_value_[nd];
                         sum[pos] += v;
                         sumsq[pos] += v * v;
                         var_sum[pos] += flat_variance_[nd];
                       })
          : dense_walk(fm, rows, n, s,
                       [&](std::uint32_t pos, std::size_t nd) {
                         const double v = flat_value_[nd];
                         sum[pos] += v;
                         sumsq[pos] += v * v;
                       });
  if (dense) return;
  route_level_sync(fm, rows, n, s);
  // Accumulate straight from the flat leaf arrays — same float source,
  // same per-row order as the scalar loop, no intermediate buffers.
  const std::int32_t* cur = s.cur.data();
  const float* value = flat_value_.data();
  if (var_sum != nullptr) {
    const float* variance = flat_variance_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double v = value[cur[i]];
      sum[i] += v;
      sumsq[i] += v * v;
      var_sum[i] += variance[cur[i]];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double v = value[cur[i]];
      sum[i] += v;
      sumsq[i] += v * v;
    }
  }
}

void DecisionTree::save_state(util::JsonWriter& w) const {
  if (!fitted()) {
    throw std::logic_error("DecisionTree::save_state: not fitted");
  }
  w.begin_object();
  w.key("depth").value(static_cast<std::uint64_t>(depth_));
  w.key("left").begin_array();
  for (const Node& n : nodes_) w.value(static_cast<std::int64_t>(n.left));
  w.end_array();
  w.key("right").begin_array();
  for (const Node& n : nodes_) w.value(static_cast<std::int64_t>(n.right));
  w.end_array();
  w.key("feature").begin_array();
  for (const Node& n : nodes_) w.value(static_cast<std::int64_t>(n.feature));
  w.end_array();
  w.key("split").begin_array();
  for (const Node& n : nodes_) {
    w.value(static_cast<std::uint64_t>(n.split_code));
  }
  w.end_array();
  // float → double is exact; value_exact round-trips the double, and the
  // load-side narrowing back to float recovers the original bit pattern.
  w.key("value").begin_array();
  for (const Node& n : nodes_) w.value_exact(static_cast<double>(n.value));
  w.end_array();
  w.key("variance").begin_array();
  for (const Node& n : nodes_) {
    w.value_exact(static_cast<double>(n.variance));
  }
  w.end_array();
  w.key("inc").begin_object();
  w.key("enabled").value(inc_enabled_);
  w.key("reserve").value(static_cast<std::uint64_t>(inc_reserve_));
  w.key("base").value(static_cast<std::uint64_t>(inc_base_));
  w.key("rows").begin_array();
  for (std::uint32_t r : inc_rows_) w.value(static_cast<std::uint64_t>(r));
  w.end_array();
  w.key("y").begin_array();
  for (double y : inc_y_) w.value_exact(y);
  w.end_array();
  w.key("leaf_of").begin_array();
  for (std::int32_t l : leaf_of_) w.value(static_cast<std::int64_t>(l));
  w.end_array();
  w.key("node_depth").begin_array();
  for (std::uint32_t d : node_depth_) {
    w.value(static_cast<std::uint64_t>(d));
  }
  w.end_array();
  w.end_object();
  w.end_object();
}

void DecisionTree::load_state(const util::JsonValue& v) {
  const util::JsonValue& left = v.at("left");
  const util::JsonValue& right = v.at("right");
  const util::JsonValue& feature = v.at("feature");
  const util::JsonValue& split = v.at("split");
  const util::JsonValue& value = v.at("value");
  const util::JsonValue& variance = v.at("variance");
  const std::size_t n = left.size();
  if (n == 0 || right.size() != n || feature.size() != n ||
      split.size() != n || value.size() != n || variance.size() != n) {
    throw std::runtime_error(
        "DecisionTree::load_state: inconsistent node arrays");
  }
  nodes_.clear();
  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Node node;
    node.left = static_cast<std::int32_t>(left.at(i).as_int());
    node.right = static_cast<std::int32_t>(right.at(i).as_int());
    node.feature = static_cast<std::int16_t>(feature.at(i).as_int());
    node.split_code = static_cast<std::uint16_t>(split.at(i).as_uint());
    node.value = static_cast<float>(value.at(i).as_double());
    node.variance = static_cast<float>(variance.at(i).as_double());
    if (node.feature != kLeaf &&
        (node.left < 0 || node.right < 0 ||
         node.left >= static_cast<std::int32_t>(n) ||
         node.right >= static_cast<std::int32_t>(n))) {
      throw std::runtime_error(
          "DecisionTree::load_state: child index out of range");
    }
    nodes_.push_back(node);
  }
  depth_ = static_cast<unsigned>(v.at("depth").as_uint());

  const util::JsonValue& inc = v.at("inc");
  inc_enabled_ = inc.at("enabled").as_bool();
  inc_reserve_ = static_cast<std::size_t>(inc.at("reserve").as_uint());
  inc_base_ = static_cast<std::size_t>(inc.at("base").as_uint());
  inc_rows_.clear();
  for (const util::JsonValue& r : inc.at("rows").items()) {
    inc_rows_.push_back(static_cast<std::uint32_t>(r.as_uint()));
  }
  inc_y_.clear();
  for (const util::JsonValue& y : inc.at("y").items()) {
    inc_y_.push_back(y.as_double());
  }
  leaf_of_.clear();
  for (const util::JsonValue& l : inc.at("leaf_of").items()) {
    leaf_of_.push_back(static_cast<std::int32_t>(l.as_int()));
  }
  node_depth_.clear();
  for (const util::JsonValue& d : inc.at("node_depth").items()) {
    node_depth_.push_back(static_cast<std::uint32_t>(d.as_uint()));
  }
  if (inc_rows_.size() != inc_y_.size() ||
      inc_rows_.size() != leaf_of_.size()) {
    throw std::runtime_error(
        "DecisionTree::load_state: inconsistent membership arrays");
  }
  if (!node_depth_.empty() && node_depth_.size() != nodes_.size()) {
    throw std::runtime_error(
        "DecisionTree::load_state: node_depth/nodes mismatch");
  }
  // Mirror assign_fitted's reservation so post-load appends behave like
  // post-assign ones (capacity only; appends remain correct regardless).
  if (inc_enabled_) {
    if (inc_base_ == 0) inc_base_ = inc_rows_.size();
    if (inc_base_ > 0) reserve_incremental(inc_base_);
  }
  rebuild_flat();
}

}  // namespace lynceus::model
