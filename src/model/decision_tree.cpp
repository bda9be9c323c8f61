#include "model/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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
/// scan's stack arrays and bucket slots; wider spaces take several passes).
static constexpr std::size_t kMaxFeatures = 64;

void DecisionTree::FitScratch::size_for(std::size_t cols_in,
                                        std::size_t stride_in) {
  cols = std::max(cols, cols_in);
  stride = std::max(stride, stride_in);
  const std::size_t slots = std::min(cols, kMaxFeatures);
  const std::size_t words = (stride + 63) / 64;
  // resize() value-initializes new entries, so the zero-bucket invariant
  // holds for them too. A stride change relocates slots; every bucket is
  // zero between scans, so any layout over zeros is valid.
  if (cnt.size() < slots * stride) {
    cnt.resize(slots * stride);
    sum.resize(slots * stride);
  }
  if (occ.size() < slots * words) occ.resize(slots * words);
  if (cand_code.size() < stride) {
    cand_code.resize(stride);
    cand_n.resize(stride);
    cand_sum.resize(stride);
    cand_score.resize(stride);
  }
  if (feature_order.size() < cols) feature_order.resize(cols);
}

/// Thin view over the fm/rng and the tree-owned FitScratch buffers (the
/// vectors live in `scratch_` so refits reuse their capacity).
struct DecisionTree::BuildCtx {
  const FeatureMatrix* fm = nullptr;
  util::Rng* rng = nullptr;
  // Parallel arrays, partitioned in place as the tree grows.
  std::vector<std::uint32_t>& idx;
  std::vector<double>& y;
  // Split-scan scratch (FitScratch). Invariant: every (count, sum) bucket
  // and every occupancy word is zero between scans. Buffers start zeroed
  // and each scan clears exactly the buckets and words it set, which are
  // the occupied levels it visits. So a refit never refills them.
  FitScratch& scan;

  explicit BuildCtx(FitScratch& s) : idx(s.idx), y(s.y), scan(s) {}
};

DecisionTree::BuildCtx DecisionTree::start_build(
    const FeatureMatrix& fm, util::Rng& rng,
    const std::vector<std::uint32_t>& rows, const std::vector<double>& y) {
  scratch_.size_for(fm.cols(), fm.max_level_count());
  BuildCtx ctx(scratch_);
  ctx.fm = &fm;
  ctx.rng = &rng;
  ctx.idx.assign(rows.begin(), rows.end());
  ctx.y.assign(y.begin(), y.end());
  // Every build draws its feature subsets from the identity order.
  for (std::size_t d = 0; d < fm.cols(); ++d) {
    scratch_.feature_order[d] = static_cast<std::uint16_t>(d);
  }
  return ctx;
}

void DecisionTree::fit(const FeatureMatrix& fm,
                       const std::vector<std::uint32_t>& rows,
                       const std::vector<double>& y, util::Rng& rng) {
  if (rows.empty() || rows.size() != y.size()) {
    throw std::invalid_argument(
        "DecisionTree::fit: rows and y must be non-empty and equal-sized");
  }
  clear_nodes();
  node_depth_.clear();
  depth_ = 0;
  reserve_nodes(2 * rows.size());
  if (inc_enabled_) {
    inc_base_ = rows.size();
    reserve_incremental(inc_base_);
  }

  BuildCtx ctx = start_build(fm, rng, rows, y);
  build(ctx, 0, ctx.idx.size(), 0, 0);

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
}

void DecisionTree::clear_nodes() {
  node_fs_.clear();
  node_lr_.clear();
  node_value_.clear();
  node_variance_.clear();
}

void DecisionTree::reserve_nodes(std::size_t cap) {
  node_fs_.reserve(cap);
  node_lr_.reserve(cap);
  node_value_.reserve(cap);
  node_variance_.reserve(cap);
}

std::int32_t DecisionTree::push_node(std::uint32_t fs, float value,
                                     float variance) {
  const std::size_t i = node_fs_.size();
  node_fs_.push_back(fs);
  node_lr_.push_back(static_cast<std::uint64_t>(i) |
                     (static_cast<std::uint64_t>(i) << 32));
  node_value_.push_back(value);
  node_variance_.push_back(variance);
  return static_cast<std::int32_t>(i);
}

void DecisionTree::set_children(std::size_t node, std::int32_t left,
                                std::int32_t right) {
  node_lr_[node] =
      static_cast<std::uint32_t>(left) |
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(right)) << 32);
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
  reserve_nodes(node_bound);
  node_depth_.reserve(node_bound);
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
  std::size_t node = 0;
  while (!is_leaf(node)) {
    const std::uint32_t fs = node_fs_[node];
    const std::uint64_t lr = node_lr_[node];
    node = fm.code(row, fs >> 16) <= (fs & 0xFFFF) ? (lr & 0xFFFFFFFF)
                                                   : (lr >> 32);
  }
  return static_cast<std::int32_t>(node);
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
  const auto li = static_cast<std::size_t>(leaf);
  const unsigned at_depth = node_depth_[li];

  if (m >= options_.min_samples_split && at_depth < options_.max_depth) {
    // Re-split: rebuild the leaf's subtree from scratch over its members,
    // with the identical split search and feature subsetting as fit().
    // build() appends the fresh subtree at the end of the node arrays; its
    // root is grafted over the old leaf slot (child indices keep pointing
    // into the appended region). A rebuild that finds no informative split
    // produces a single leaf, whose statistics are copied over before it
    // is popped again.
    BuildCtx ctx = start_build(fm, rng, gather_rows_, gather_y_);
    const auto sub = static_cast<std::size_t>(
        build(ctx, 0, ctx.idx.size(), at_depth, 0));
    node_value_[li] = node_value_[sub];
    node_variance_[li] = node_variance_[sub];
    if (is_leaf(sub)) {
      // Degenerate rebuild: the slot stays a leaf; drop the orphan.
      node_fs_.pop_back();
      node_lr_.pop_back();
      node_value_.pop_back();
      node_variance_.pop_back();
      node_depth_.pop_back();
    } else {
      node_fs_[li] = node_fs_[sub];
      node_lr_[li] = node_lr_[sub];
      // The subtree's members moved to fresh leaves below `leaf`.
      for (std::size_t i = 0; i < inc_rows_.size(); ++i) {
        if (leaf_of_[i] == leaf) leaf_of_[i] = find_leaf(fm, inc_rows_[i]);
      }
    }
    return;
  }

  // Leaf-statistics update: the exact (mean, variance) a from-scratch fit
  // would record for this member multiset.
  double sum = 0.0;
  for (double v : gather_y_) sum += v;
  const double mean = sum / static_cast<double>(m);
  node_value_[li] = static_cast<float>(mean);
  if (options_.leaf_variance) {
    double sq = 0.0;
    for (double v : gather_y_) {
      const double d = v - mean;
      sq += d * d;
    }
    node_variance_[li] = static_cast<float>(sq / static_cast<double>(m));
  }
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
  depth_ = src.depth_;
  inc_rows_.assign(src.inc_rows_.begin(), src.inc_rows_.end());
  inc_y_.assign(src.inc_y_.begin(), src.inc_y_.end());
  leaf_of_.assign(src.leaf_of_.begin(), src.leaf_of_.end());
  node_depth_.assign(src.node_depth_.begin(), src.node_depth_.end());
  // Propagate the split-scan scratch sizing: a tree that only ever
  // receives assign_fitted() (the engines' per-level branch models) never
  // runs fit(), so without this its first re-splitting append would size
  // the scan buffers on the spot and allocate. The source chain always
  // starts at a fit() tree.
  scratch_.size_for(src.scratch_.cols, src.scratch_.stride);
  node_fs_.assign(src.node_fs_.begin(), src.node_fs_.end());
  node_lr_.assign(src.node_lr_.begin(), src.node_lr_.end());
  node_value_.assign(src.node_value_.begin(), src.node_value_.end());
  node_variance_.assign(src.node_variance_.begin(),
                        src.node_variance_.end());
}

std::int32_t DecisionTree::build(BuildCtx& ctx, std::size_t begin,
                                 std::size_t end, unsigned depth,
                                 std::uint64_t constant) {
  const FeatureMatrix& fm = *ctx.fm;
  const std::size_t n = end - begin;
  depth_ = std::max(depth_, depth);
  const std::uint32_t* const idx = ctx.idx.data();
  const double* const yv = ctx.y.data();
  FitScratch& sc = ctx.scan;

  auto make_leaf = [&](double total_sum) {
    const double node_mean = total_sum / static_cast<double>(n);
    float variance = 0.0F;
    if (options_.leaf_variance) {
      double sq = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const double d = yv[i] - node_mean;
        sq += d * d;
      }
      variance = static_cast<float>(sq / static_cast<double>(n));
    }
    if (inc_enabled_) node_depth_.push_back(depth);
    return push_node(kLeafFs, static_cast<float>(node_mean), variance);
  };
  // Targets summed in row order: every path below produces exactly this.
  auto row_order_sum = [&] {
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) total += yv[i];
    return total;
  };

  if (n < options_.min_samples_split || depth >= options_.max_depth) {
    return make_leaf(row_order_sum());
  }

  // Choose the feature subset for this split (Weka RandomTree style).
  const std::size_t cols = fm.cols();
  std::uint16_t* const order = sc.feature_order.data();
  std::size_t feature_count = cols;
  if (options_.features_per_split != 0 && options_.features_per_split < cols) {
    feature_count = options_.features_per_split;
    // Partial Fisher-Yates: the first `feature_count` entries become a
    // uniform random subset.
    for (std::size_t i = 0; i < feature_count; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(ctx.rng->below(cols - i));
      std::swap(order[i], order[j]);
    }
  }

  // Configuration census, after the feature draw so the RNG stream is the
  // one a full scan leaves. A node holding copies of one configuration
  // cannot split (bootstrap resamples make such nodes common); one holding
  // two takes the closed form below.
  const std::uint32_t a = idx[begin];
  std::size_t first_b = begin + 1;
  while (first_b < end && idx[first_b] == a) ++first_b;
  if (first_b == end) return make_leaf(row_order_sum());
  const std::uint32_t b = idx[first_b];
  bool two_configs = true;
  for (std::size_t i = first_b + 1; i < end && two_configs; ++i) {
    two_configs = idx[i] == a || idx[i] == b;
  }

  // Variance-reduction split search. Maximizing
  //   S(split) = s_L^2/n_L + s_R^2/n_R
  // is equivalent to minimizing the summed squared error of the two
  // children, so no sum-of-squares accumulation is needed.
  double best_score = -std::numeric_limits<double>::infinity();
  std::int16_t best_feature = kLeaf;
  std::uint16_t best_code = 0;
  double total_sum = 0.0;
  std::uint64_t child_constant = constant;

  // Two configurations: per-configuration row-order sums. Adding +0.0 for
  // the other configuration's rows is exact: sums that start at +0.0 are
  // never -0.0.
  std::uint32_t n_a = 0;
  double sum_a = 0.0;
  double sum_b = 0.0;
  auto scan_two = [&](std::size_t from, std::size_t to) {
    const std::uint16_t* row_a = fm.row_codes(a);
    const std::uint16_t* row_b = fm.row_codes(b);
    for (std::size_t at = from; at < to; ++at) {
      const std::uint16_t f = order[at];
      const std::uint16_t ca = row_a[f];
      const std::uint16_t cb = row_b[f];
      if (ca == cb) continue;
      // The one threshold is the lower code; its bucket is one config's.
      const bool a_left = ca < cb;
      const std::uint32_t n_left =
          a_left ? n_a : static_cast<std::uint32_t>(n) - n_a;
      double s_left = 0.0;
      s_left += a_left ? sum_a : sum_b;
      const auto n_right = static_cast<double>(n - n_left);
      const double s_right = total_sum - s_left;
      const double score = s_left * s_left / static_cast<double>(n_left) +
                           s_right * s_right / n_right;
      if (score > best_score) {
        best_score = score;
        best_feature = static_cast<std::int16_t>(f);
        best_code = a_left ? ca : cb;
      }
    }
  };

  // General scan: one pass over the rows accumulates (count, sum) and the
  // occupied-level bits per level for every candidate feature at once (the
  // row's code block is a single contiguous read). Each bucket receives
  // its targets in row order, so its sum is bitwise what a per-feature
  // scan computes; thresholds are then scored in (feature, code) order.
  const std::size_t stride = sc.stride;
  const std::size_t words = (stride + 63) / 64;
  auto scan_chunk = [&](std::size_t from, std::size_t to,
                        bool accumulate_total) {
    // Hoist the features and their bucket bases out of the row loop (the
    // loop is the fit's hottest code); inherited constants are skipped.
    std::uint16_t sel[kMaxFeatures];
    std::uint32_t* cntk[kMaxFeatures];
    double* sumk[kMaxFeatures];
    std::uint64_t* occk[kMaxFeatures];
    std::size_t nf = 0;
    for (std::size_t at = from; at < to; ++at) {
      const std::uint16_t f = order[at];
      if (f < 64 && ((constant >> f) & 1U) != 0) continue;
      sel[nf] = f;
      cntk[nf] = sc.cnt.data() + nf * stride;
      sumk[nf] = sc.sum.data() + nf * stride;
      occk[nf] = sc.occ.data() + nf * words;
      ++nf;
    }
    if (nf == 0) {
      if (accumulate_total) total_sum = row_order_sum();
      return;
    }
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint16_t* row = fm.row_codes(idx[i]);
      const double yi = yv[i];
      if (accumulate_total) total_sum += yi;
      for (std::size_t k = 0; k < nf; ++k) {
        const std::uint16_t c = row[sel[k]];
        ++cntk[k][c];
        sumk[k][c] += yi;
        occk[k][c >> 6] |= std::uint64_t{1} << (c & 63);
      }
    }
    std::uint16_t* const cand_code = sc.cand_code.data();
    std::uint32_t* const cand_n = sc.cand_n.data();
    double* const cand_sum = sc.cand_sum.data();
    double* const cand_score = sc.cand_score.data();
    for (std::size_t k = 0; k < nf; ++k) {
      // Prefix pass over the occupied levels in code order. It also
      // restores the zero invariant for the buckets and words it visits.
      std::size_t m = 0;
      std::uint32_t n_left = 0;
      double s_left = 0.0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t bits = occk[k][w];
        occk[k][w] = 0;
        while (bits != 0) {
          const std::size_t c =
              w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits));
          bits &= bits - 1;
          n_left += cntk[k][c];
          s_left += sumk[k][c];
          cntk[k][c] = 0;
          sumk[k][c] = 0.0;
          cand_code[m] = static_cast<std::uint16_t>(c);
          cand_n[m] = n_left;
          cand_sum[m] = s_left;
          ++m;
        }
      }
      // The highest occupied level leaves the right side empty, so it is
      // no threshold; a feature on one level is constant below this node.
      const std::size_t cands = m - 1;
      if (sel[k] < 64) {
        child_constant |= static_cast<std::uint64_t>(cands == 0) << sel[k];
      }
      for (std::size_t j = 0; j < cands; ++j) {
        const auto n_right = static_cast<double>(n - cand_n[j]);
        const double s_right = total_sum - cand_sum[j];
        cand_score[j] =
            cand_sum[j] * cand_sum[j] / static_cast<double>(cand_n[j]) +
            s_right * s_right / n_right;
      }
      // First strict maximum, selected without branches.
      const auto feature_k = static_cast<std::int16_t>(sel[k]);
      for (std::size_t j = 0; j < cands; ++j) {
        const bool better = cand_score[j] > best_score;
        best_score = better ? cand_score[j] : best_score;
        best_feature = better ? feature_k : best_feature;
        best_code = better ? cand_code[j] : best_code;
      }
    }
  };
  // Candidate features are evaluated in feature_order sequence either way;
  // chunking only bounds the stack arrays for very wide spaces.
  auto scan_features = [&](std::size_t from, std::size_t to,
                           bool accumulate_total) {
    if (two_configs) {
      scan_two(from, to);
      return;
    }
    for (std::size_t at = from; at < to; at += kMaxFeatures) {
      scan_chunk(at, std::min(to, at + kMaxFeatures),
                 accumulate_total && at == from);
    }
  };

  if (two_configs) {
    for (std::size_t i = begin; i < end; ++i) {
      const double yi = yv[i];
      const bool is_a = idx[i] == a;
      total_sum += yi;
      n_a += is_a ? 1U : 0U;
      sum_a += is_a ? yi : 0.0;
      sum_b += is_a ? 0.0 : yi;
    }
  }
  scan_features(0, feature_count, /*accumulate_total=*/true);
  const double parent_score = total_sum * total_sum / static_cast<double>(n);
  // If the random subset offered no informative split (all its features
  // constant on this node, or no gain), fall back to the remaining
  // features before giving up — otherwise a 1-feature subset would
  // regularly truncate the tree at nodes other features could still split.
  if (best_score <= parent_score + 1e-12 && feature_count < cols) {
    scan_features(feature_count, cols, /*accumulate_total=*/false);
  }

  if (best_feature == kLeaf || best_score <= parent_score + 1e-12) {
    return make_leaf(total_sum);
  }

  // In-place partition of the parallel arrays: a branch-free Lomuto pass.
  // Both slots are always written, through an all-ones/all-zeros mask
  // (a plain conditional here is compiled back into a branch that
  // mispredicts on every other row); the swap takes effect iff the row
  // goes left, so the permutation is the classic swap loop's.
  // Targets move as bit patterns (memcpy: no aliasing games, no FP ops).
  std::uint32_t* const pidx = ctx.idx.data();
  double* const py = ctx.y.data();
  const std::uint16_t* const codes = fm.codes() + best_feature;
  std::size_t mid = begin;
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint32_t ri = pidx[i];
    const std::uint32_t rm = pidx[mid];
    std::uint64_t yi;
    std::uint64_t ym;
    std::memcpy(&yi, py + i, sizeof yi);
    std::memcpy(&ym, py + mid, sizeof ym);
    const bool go_left =
        codes[static_cast<std::size_t>(ri) * cols] <= best_code;
    const std::uint64_t take = 0 - static_cast<std::uint64_t>(go_left);
    const std::uint32_t dr = (ri ^ rm) & static_cast<std::uint32_t>(take);
    const std::uint64_t dy = (yi ^ ym) & take;
    pidx[i] = ri ^ dr;
    pidx[mid] = rm ^ dr;
    yi ^= dy;
    ym ^= dy;
    std::memcpy(py + i, &yi, sizeof yi);
    std::memcpy(py + mid, &ym, sizeof ym);
    mid += static_cast<std::size_t>(go_left);
  }

  if (inc_enabled_) node_depth_.push_back(depth);
  const std::int32_t self = push_node(
      (static_cast<std::uint32_t>(best_feature) << 16) | best_code, 0.0F,
      0.0F);
  const std::int32_t left = build(ctx, begin, mid, depth + 1, child_constant);
  const std::int32_t right = build(ctx, mid, end, depth + 1, child_constant);
  set_children(static_cast<std::size_t>(self), left, right);
  return self;
}

double DecisionTree::predict(const FeatureMatrix& fm,
                             std::uint32_t row) const {
  if (!fitted()) throw std::logic_error("DecisionTree::predict: not fitted");
  return node_value_[static_cast<std::size_t>(find_leaf(fm, row))];
}

DecisionTree::LeafStats DecisionTree::predict_stats(const FeatureMatrix& fm,
                                                    std::uint32_t row) const {
  if (!fitted()) {
    throw std::logic_error("DecisionTree::predict_stats: not fitted");
  }
  const auto leaf = static_cast<std::size_t>(find_leaf(fm, row));
  return {node_value_[leaf], node_variance_[leaf]};
}

/// Row -> batch position map of a dense batch of explicit rows, for the
/// position-indexed entry points (the ensemble accumulates by row id).
static const std::uint32_t* map_positions(const FeatureMatrix& fm,
                                          const std::uint32_t* rows,
                                          std::size_t n, PredictScratch& s) {
  s.pos_of_row.resize(fm.rows());
  for (std::size_t i = 0; i < n; ++i) {
    s.pos_of_row[rows[i]] = static_cast<std::uint32_t>(i);
  }
  return s.pos_of_row.data();
}

/// Calls `fn(index)` for every row set in the `words`-word mask `m`, where
/// index is the row id (kByRow) or its batch position `pos_of_row[row]`.
template <bool kByRow, class Fn>
static void for_each_row(const std::uint64_t* m, std::size_t words,
                         const std::uint32_t* pos_of_row, const Fn& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = m[w];
    while (bits != 0) {
      const auto row = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(__builtin_ctzll(bits)));
      fn(kByRow ? row : pos_of_row[row]);
      bits &= bits - 1;
    }
  }
}

void DecisionTree::plan_batch(const FeatureMatrix& fm,
                              const std::uint32_t* rows, std::size_t n,
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
  // Two mask slots per depth: the left child's subtree is fully processed
  // (touching only deeper slots) before the right child's stored mask is
  // popped, so siblings never clobber each other. Sized by the depth *cap*
  // rather than the current depth: an incremental append can deepen the
  // tree after the engines' warm-up pass, and this arena must not
  // reallocate then (the zero-allocation guarantee covers the incremental
  // path too).
  const std::size_t depth_cap =
      2 * (static_cast<std::size_t>(options_.max_depth) + 2);
  s.stack.resize(depth_cap);
  s.dense = false;
  if (fm.level_mask(0, 0) == nullptr) return;
  const std::size_t words = fm.mask_words();
  s.root_mask.reserve(words);
  s.pos_of_row.reserve(fm.rows());
  s.arena.reserve(depth_cap * words);
  // A sparse batch routes faster through the level-sync sweep than
  // through full-width mask intersections. (A finer work-estimate cut
  // was tried and reverted: per-node mask costs vary too much across
  // spaces for a single crossover constant — it mis-routed mid-size
  // tensorflow candidate batches and regressed LA decisions up to 1.7×.)
  if (rows != nullptr && n * 4 < fm.rows()) return;

  s.root_mask.assign(words, 0);
  if (rows == nullptr) {
    for (std::size_t r = 0; r < n; r += 64) {
      const std::size_t bits = std::min<std::size_t>(64, n - r);
      s.root_mask[r / 64] =
          bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t row = rows[i];
      const std::uint64_t bit = std::uint64_t{1} << (row % 64);
      if ((s.root_mask[row / 64] & bit) != 0) return;  // duplicate id
      s.root_mask[row / 64] |= bit;
    }
  }
  s.arena.resize(depth_cap * words);
  s.dense = true;
}

template <class LeafFn>
void DecisionTree::dense_walk(const FeatureMatrix& fm, PredictScratch& s,
                              const LeafFn& leaf) const {
  const std::size_t words = fm.mask_words();
  // Raw views: the walk's stores must not make the compiler reload them.
  const std::uint32_t* const fs = node_fs_.data();
  const std::uint64_t* const lr = node_lr_.data();
  std::uint64_t* const arena = s.arena.data();
  std::int64_t* const stack = s.stack.data();
  const auto slot = [&](std::uint32_t depth, std::uint32_t side) {
    return arena + (static_cast<std::size_t>(depth) * 2 + side) * words;
  };
  const auto encode = [](std::int32_t node, std::uint32_t depth,
                         std::uint32_t side) {
    return (static_cast<std::int64_t>(node) << 32) |
           (static_cast<std::int64_t>(depth) << 1) | side;
  };
  std::copy(s.root_mask.begin(), s.root_mask.end(), slot(0, 0));
  std::size_t top = 0;
  stack[top++] = encode(0, 0, 0);
  while (top != 0) {
    const std::int64_t e = stack[--top];
    const auto node = static_cast<std::int32_t>(e >> 32);
    const auto depth = static_cast<std::uint32_t>((e & 0xFFFFFFFF) >> 1);
    const auto side = static_cast<std::uint32_t>(e & 1);
    const std::uint64_t* m = slot(depth, side);
    const auto ni = static_cast<std::size_t>(node);
    const auto left_child = static_cast<std::int32_t>(lr[ni] & 0xFFFFFFFF);
    if (left_child == node) {  // leaf (self-loop)
      leaf(ni, m);
      continue;
    }
    const std::uint64_t* fmask = fm.level_mask(
        fs[ni] >> 16, static_cast<std::uint16_t>(fs[ni] & 0xFFFF));
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
    // At most two entries per depth are live, within the stack's size.
    if (right_any != 0) {
      stack[top++] =
          encode(static_cast<std::int32_t>(lr[ni] >> 32), depth + 1, 1);
    }
    if (left_any != 0) stack[top++] = encode(left_child, depth + 1, 0);
  }
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
    unsigned depth, const std::uint32_t* fs, const std::uint64_t* lr,
    std::int32_t* cur) {
  const __m256i mask16 = _mm256_set1_epi32(0xFFFF);
  const __m256i one = _mm256_set1_epi32(1);
  // The children word of node i is int32 lanes 2i (left) and 2i+1 (right).
  const int* lr32 = reinterpret_cast<const int*>(lr);
  for (unsigned d = 0; d < depth; ++d) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      const __m256i vcur =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cur + i));
      const __m256i vfs =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(fs), vcur, 4);
      const __m256i vfeat = _mm256_srli_epi32(vfs, 16);
      const __m256i vsplit = _mm256_and_si256(vfs, mask16);
      const __m256i vbase =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row_base + i));
      // 32-bit gather at a 16-bit stride reads one code plus two padding
      // bytes (FeatureMatrix::codes() guarantees the tail pad); mask off
      // the high half.
      const __m256i vcode = _mm256_and_si256(
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(codes),
                                 _mm256_add_epi32(vbase, vfeat), 2),
          mask16);
      const __m256i vlr = _mm256_slli_epi32(vcur, 1);
      const __m256i vleft = _mm256_i32gather_epi32(lr32, vlr, 4);
      const __m256i vright =
          _mm256_i32gather_epi32(lr32, _mm256_add_epi32(vlr, one), 4);
      // Go right iff code > split; both fit in 16 bits, so the signed
      // 32-bit compare is exact. A leaf's 0xFFFF threshold never
      // compares less than a code, keeping self-loops parked.
      const __m256i go_right = _mm256_cmpgt_epi32(vcode, vsplit);
      const __m256i vnext = _mm256_blendv_epi8(vleft, vright, go_right);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cur + i), vnext);
    }
    for (; i < n; ++i) {
      const std::int32_t nd = cur[i];
      const std::uint32_t f = fs[nd];
      const std::int32_t c = codes[row_base[i] + (f >> 16)];
      cur[i] = static_cast<std::int32_t>(
          c <= static_cast<std::int32_t>(f & 0xFFFF) ? (lr[nd] & 0xFFFFFFFF)
                                                     : (lr[nd] >> 32));
    }
  }
}

#endif  // LYNCEUS_SIMD_AVX2

void DecisionTree::route_level_sync(const FeatureMatrix& fm,
                                    const std::uint32_t* rows, std::size_t n,
                                    PredictScratch& s) const {
  s.cur.resize(n);
  std::int32_t* cur = s.cur.data();
  std::fill_n(cur, n, 0);
  if (depth_ == 0) return;  // root-only tree: every row is already home
  const std::uint16_t* codes = fm.codes();
  const std::size_t cols = fm.cols();
  const std::uint32_t* fs = node_fs_.data();
  const std::uint64_t* lr = node_lr_.data();
#ifdef LYNCEUS_SIMD_AVX2
  if (n >= 8 && lynceus_avx2_supported()) {
    s.row_base.resize(n);
    std::uint32_t* rb = s.row_base.data();
    for (std::size_t i = 0; i < n; ++i) {
      rb[i] = static_cast<std::uint32_t>(
          (rows != nullptr ? rows[i] : i) * cols);
    }
    route_levels_avx2(codes, rb, n, depth_, fs, lr, cur);
    return;
  }
#endif
  // Branch-free compare/route sweep: no leaf test, no data-dependent
  // branches. The loops read the packed per-node words (one 32-bit
  // feature+split load, one 64-bit children load) because the sweep is
  // load-port bound; level 0 is peeled since every row starts at the
  // root, whose fields are loop constants.
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
  if (!fitted()) {
    throw std::logic_error("DecisionTree::predict_batch: not fitted");
  }
  if (n == 0) return;
  PredictScratch local;
  PredictScratch& s = scratch != nullptr ? *scratch : local;
  plan_batch(fm, rows, n, s);
  if (s.dense) {
    const std::uint32_t* pos =
        rows != nullptr ? map_positions(fm, rows, n, s) : nullptr;
    const std::size_t words = fm.mask_words();
    dense_walk(fm, s, [&](std::size_t nd, const std::uint64_t* m) {
      const auto put = [&](std::uint32_t p) {
        out_value[p] = node_value_[nd];
        if (out_variance != nullptr) out_variance[p] = node_variance_[nd];
      };
      if (rows == nullptr) {
        for_each_row<true>(m, words, pos, put);
      } else {
        for_each_row<false>(m, words, pos, put);
      }
    });
    return;
  }
  route_level_sync(fm, rows, n, s);
  const std::int32_t* cur = s.cur.data();
  const float* value = node_value_.data();
  if (out_variance != nullptr) {
    const float* variance = node_variance_.data();
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
  if (!fitted()) {
    throw std::logic_error("DecisionTree::accumulate_batch: not fitted");
  }
  PredictScratch local;
  PredictScratch& s = scratch != nullptr ? *scratch : local;
  plan_batch(fm, rows, n, s);
  if (s.dense && rows != nullptr) {
    // Position-indexed, unlike accumulate_planned's row-indexed dense walk.
    accumulate_dense<false>(fm, sum, sumsq, var_sum,
                            map_positions(fm, rows, n, s), s);
    return;
  }
  accumulate_planned(fm, rows, n, sum, sumsq, var_sum, s);
}

template <bool kByRow>
void DecisionTree::accumulate_dense(const FeatureMatrix& fm, double* sum,
                                    double* sumsq, double* var_sum,
                                    const std::uint32_t* pos,
                                    PredictScratch& s) const {
  const std::size_t words = fm.mask_words();
  dense_walk(fm, s, [&](std::size_t nd, const std::uint64_t* m) {
    const double v = node_value_[nd];
    const double v2 = v * v;
    if (var_sum != nullptr) {
      const double var = node_variance_[nd];
      for_each_row<kByRow>(m, words, pos, [&](std::uint32_t p) {
        sum[p] += v;
        sumsq[p] += v2;
        var_sum[p] += var;
      });
    } else {
      for_each_row<kByRow>(m, words, pos, [&](std::uint32_t p) {
        sum[p] += v;
        sumsq[p] += v2;
      });
    }
  });
}

void DecisionTree::accumulate_planned(const FeatureMatrix& fm,
                                      const std::uint32_t* rows,
                                      std::size_t n, double* sum,
                                      double* sumsq, double* var_sum,
                                      PredictScratch& s) const {
  if (!fitted()) {
    throw std::logic_error("DecisionTree::accumulate_batch: not fitted");
  }
  if (n == 0) return;
  // Per row: sum += v, sumsq += v*v, var_sum += leaf variance — the
  // scalar loop's operations in its order, from the same float source.
  if (s.dense) {
    accumulate_dense<true>(fm, sum, sumsq, var_sum, nullptr, s);
    return;
  }
  route_level_sync(fm, rows, n, s);
  const std::int32_t* cur = s.cur.data();
  const float* value = node_value_.data();
  if (var_sum != nullptr) {
    const float* variance = node_variance_.data();
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
  // Leaves are written as left = right = feature = -1, split 0.
  const std::size_t n = node_count();
  w.key("left").begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    w.value(is_leaf(i) ? std::int64_t{-1}
                       : static_cast<std::int64_t>(node_lr_[i] & 0xFFFFFFFF));
  }
  w.end_array();
  w.key("right").begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    w.value(is_leaf(i) ? std::int64_t{-1}
                       : static_cast<std::int64_t>(node_lr_[i] >> 32));
  }
  w.end_array();
  w.key("feature").begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    w.value(is_leaf(i) ? std::int64_t{kLeaf}
                       : static_cast<std::int64_t>(static_cast<std::int16_t>(
                             node_fs_[i] >> 16)));
  }
  w.end_array();
  w.key("split").begin_array();
  for (std::size_t i = 0; i < n; ++i) {
    w.value(static_cast<std::uint64_t>(is_leaf(i) ? 0 : node_fs_[i] & 0xFFFF));
  }
  w.end_array();
  // float → double is exact; value_exact round-trips the double, and the
  // load-side narrowing back to float recovers the original bit pattern.
  w.key("value").begin_array();
  for (const float v : node_value_) w.value_exact(static_cast<double>(v));
  w.end_array();
  w.key("variance").begin_array();
  for (const float v : node_variance_) w.value_exact(static_cast<double>(v));
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
  // The state may come from a remote client, so it is checked before
  // anything routes through it. Fits and incremental grafts number every
  // child after its parent; requiring that rules out cycles (which would
  // hang the scalar descent) as well as out-of-range children.
  clear_nodes();
  reserve_nodes(n);
  const auto count = static_cast<std::int64_t>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t l = left.at(i).as_int();
    const std::int64_t r = right.at(i).as_int();
    const std::int64_t f = feature.at(i).as_int();
    const std::uint64_t code = split.at(i).as_uint();
    const auto leaf_value = static_cast<float>(value.at(i).as_double());
    const auto leaf_variance = static_cast<float>(variance.at(i).as_double());
    if (f == kLeaf) {
      if (l != -1 || r != -1 || code != 0) {
        throw std::runtime_error(
            "DecisionTree::load_state: leaf with children or a threshold");
      }
      push_node(kLeafFs, leaf_value, leaf_variance);
      continue;
    }
    const auto self = static_cast<std::int64_t>(i);
    if (l >= count || r >= count) {
      throw std::runtime_error(
          "DecisionTree::load_state: child index out of range");
    }
    if (l <= self || r <= self) {
      throw std::runtime_error(
          "DecisionTree::load_state: child index at or below its parent's");
    }
    push_node((static_cast<std::uint32_t>(static_cast<std::int16_t>(f)) << 16) |
                  static_cast<std::uint16_t>(code),
              leaf_value, leaf_variance);
    set_children(i, static_cast<std::int32_t>(l), static_cast<std::int32_t>(r));
  }
  // Depth of the deepest node reachable from the root. Children follow
  // their parents, so one pass in index order settles every depth.
  std::vector<std::uint32_t> reach(n, 0);  // depth + 1; 0 = unreached
  reach[0] = 1;
  unsigned tree_depth = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (reach[i] == 0) continue;
    tree_depth = std::max(tree_depth, reach[i] - 1);
    if (is_leaf(i)) continue;
    for (const std::uint64_t child :
         {node_lr_[i] & 0xFFFFFFFF, node_lr_[i] >> 32}) {
      auto& d = reach[static_cast<std::size_t>(child)];
      d = std::max(d, reach[i] + 1);
    }
  }
  const std::uint64_t stored_depth = v.at("depth").as_uint();
  // Batch routing takes depth() passes, and the dense walk's mask arena is
  // sized by max_depth.
  if (stored_depth < tree_depth || stored_depth > options_.max_depth) {
    throw std::runtime_error(
        "DecisionTree::load_state: depth disagrees with the node arrays or "
        "exceeds max_depth");
  }
  depth_ = static_cast<unsigned>(stored_depth);

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
    const std::int64_t leaf = l.as_int();
    if (leaf < 0 || static_cast<std::uint64_t>(leaf) >= n ||
        !is_leaf(static_cast<std::size_t>(leaf))) {
      throw std::runtime_error(
          "DecisionTree::load_state: leaf_of entry is not a leaf");
    }
    leaf_of_.push_back(static_cast<std::int32_t>(leaf));
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
  if (!node_depth_.empty() && node_depth_.size() != n) {
    throw std::runtime_error(
        "DecisionTree::load_state: node_depth/nodes mismatch");
  }
  // Mirror assign_fitted's reservation so post-load appends behave like
  // post-assign ones (capacity only; appends remain correct regardless).
  if (inc_enabled_) {
    if (inc_base_ == 0) inc_base_ = inc_rows_.size();
    if (inc_base_ > 0) reserve_incremental(inc_base_);
  }
}

}  // namespace lynceus::model
