#include "core/lookahead.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include <cmath>

#include "core/acquisition.hpp"
#include "math/distributions.hpp"
#include "util/rng.hpp"

namespace lynceus::core {

namespace {

/// Incumbent for a simulated state: cheapest feasible sample, or the
/// paper's fallback (max sampled cost + 3 · max predictive stddev over the
/// untested candidates). Shared by both engines; the scan order replicates
/// the naive references exactly.
double state_incumbent(const std::vector<double>& y,
                       const std::vector<char>& feasible,
                       const std::vector<model::Prediction>& cand_preds) {
  bool any = false;
  double best = 0.0;
  double most_expensive = y.front();
  for (std::size_t i = 0; i < y.size(); ++i) {
    most_expensive = std::max(most_expensive, y[i]);
    if (feasible[i] != 0 && (!any || y[i] < best)) {
      best = y[i];
      any = true;
    }
  }
  if (any) return best;
  double max_stddev = 0.0;
  for (const auto& pred : cand_preds) {
    max_stddev = std::max(max_stddev, pred.stddev);
  }
  return most_expensive + 3.0 * max_stddev;
}

constexpr double kPhi0 = 0.3989422804014326779;  // φ(0) = 1/√(2π)

/// A decision key's hash: the context's (computed once) mixed with the
/// state's.
std::uint64_t key_hash(std::uint64_t context_hash, const std::string& state) {
  return context_hash ^ (std::hash<std::string>{}(state) +
                         0x9e3779b97f4a7c15ULL + (context_hash << 6) +
                         (context_hash >> 2));
}

}  // namespace

// ---------------------------------------------------------------------------
// RootCache
// ---------------------------------------------------------------------------

void RootCache::Key::set_context(std::string context) {
  context_hash_ = std::hash<std::string>{}(context);
  context_ = std::make_shared<const std::string>(std::move(context));
}

void RootCache::Key::begin_state(std::uint64_t seed, std::uint64_t iteration,
                                 double remaining_budget,
                                 const std::vector<Sample>& samples,
                                 const std::vector<FailureRecord>& failures) {
  state_.clear();
  put(seed);
  put(iteration);
  put(remaining_budget);
  put(samples.size());
  for (const Sample& s : samples) {
    put(s.id);
    put(s.cost);
    put(static_cast<char>(s.feasible ? 1 : 0));
  }
  put(failures.size());
  for (const FailureRecord& f : failures) put(f.id);
}

void RootCache::Key::append_problem(std::string& out,
                                    const OptimizationProblem& problem) {
  const space::ConfigSpace& space = *problem.space;
  append(out, space.size());
  append(out, space.dim_count());
  for (ConfigId id = 0; id < space.size(); ++id) {
    for (double f : space.features(id)) append(out, f);
    append(out, problem.unit_price_per_hour.at(id));
  }
  append(out, problem.tmax_seconds);
  append(out, problem.budget);
}

RootCache::RootCache() : RootCache(Options{}) {}

RootCache::RootCache(Options options) : options_(options) {
  entries_.reserve(options_.capacity);
}

bool RootCache::same_context(const Entry& e, const Key& key) {
  return e.context == key.context_ ||
         (e.context_hash == key.context_hash_ && *e.context == *key.context_);
}

std::size_t RootCache::find(const Key& key, std::uint64_t hash) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (e.hash == hash && e.state == key.state_ && same_context(e, key)) {
      return i;
    }
  }
  return std::string::npos;
}

bool RootCache::lookup(const Key& key, DecisionEvent& out) {
  if (options_.capacity == 0) return false;
  const std::uint64_t hash = key_hash(key.context_hash_, key.state_);
  std::lock_guard lock(mutex_);
  const std::size_t i = find(key, hash);
  if (i == std::string::npos) {
    ++stats_.misses;
    return false;
  }
  Entry& e = entries_[i];
  key.context_ = e.context;  // equal; share the cached copy
  e.tick = ++tick_;
  ++stats_.hits;
  out = e.decision;
  return true;
}

void RootCache::store(const Key& key, const DecisionEvent& decision) {
  if (options_.capacity == 0) return;
  const std::uint64_t hash = key_hash(key.context_hash_, key.state_);
  std::lock_guard lock(mutex_);
  if (find(key, hash) != std::string::npos) return;  // already cached
  for (const Entry& e : entries_) {
    if (same_context(e, key)) {
      key.context_ = e.context;  // equal; share the cached copy
      break;
    }
  }
  Entry* slot = nullptr;
  if (entries_.size() < options_.capacity) {
    slot = &entries_.emplace_back();
  } else {
    slot = &entries_.front();
    for (Entry& e : entries_) {
      if (e.tick < slot->tick) slot = &e;
    }
  }
  slot->context = key.context_;
  slot->context_hash = key.context_hash_;
  slot->hash = hash;
  slot->state.assign(key.state_);  // reuses an evicted entry's buffer
  slot->decision = decision;
  slot->tick = ++tick_;
}

RootCache::Stats RootCache::stats() const {
  std::lock_guard lock(mutex_);
  Stats out = stats_;
  out.entries = entries_.size();
  return out;
}

// ---------------------------------------------------------------------------
// LookaheadEngine
// ---------------------------------------------------------------------------

LookaheadEngine::LookaheadEngine(const OptimizationProblem& problem,
                                 Options options,
                                 const model::ModelFactory& factory,
                                 std::size_t workers)
    : problem_(problem),
      options_(std::move(options)),
      fm_(*problem.space),
      quadrature_(options_.gh_points) {
  if (workers == 0) {
    throw std::invalid_argument("LookaheadEngine: need at least one worker");
  }
  viable_z_ = math::norm_cdf_ge_boundary(options_.feasibility_quantile);
  const std::size_t space = problem_.space->size();
  root_model_ = factory();
  if (options_.incremental_refit && options_.lookahead > 0) {
    // A path appends at most `lookahead` fantasy samples; enabling capture
    // pre-reserves for exactly that. At lookahead 0 no branch model ever
    // exists, so capture would be pure per-fit overhead and stays off.
    // Models without an incremental path (the GP) decline, and the engine
    // falls back to from-scratch refits.
    incremental_ok_ = root_model_->enable_incremental(options_.lookahead);
  }
  root_rows_.reserve(space);
  root_y_.reserve(space);
  root_feasible_.reserve(space);
  root_cands_.reserve(space);
  tested_.reserve(space);
  viable_.reserve(space);
  eic_by_id_.resize(space, 0.0);

  // Static partitions of the depth-0 branch fan-out (pooled-determinism
  // contract): at most one per pool thread plus the caller, never more
  // than there are branches. 1 = serial, no replicas built at all.
  if (options_.branch_pool != nullptr && options_.lookahead > 0) {
    branch_parts_ = std::min<std::size_t>(
        options_.branch_pool->worker_count() + 1, quadrature_.size());
    if (branch_parts_ == 0) branch_parts_ = 1;
  }

  const auto init_workspace = [&](Workspace& ws) {
    ws.model = factory();
    // A path never holds more than every real sample plus one fantasy
    // sample per lookahead step.
    ws.rows.reserve(space + options_.lookahead + 1);
    ws.y.reserve(space + options_.lookahead + 1);
    ws.feasible.reserve(space + options_.lookahead + 1);
    ws.levels.resize(options_.lookahead);
    for (auto& lvl : ws.levels) {
      lvl.cands.reserve(space);
      lvl.preds.reserve(space);
      lvl.nodes.resize(quadrature_.size());
      if (incremental_ok_) {
        lvl.inc_model = factory();
        incremental_ok_ = lvl.inc_model->enable_incremental(options_.lookahead);
      }
    }
  };

  workspaces_.resize(workers);
  for (auto& ws : workspaces_) {
    init_workspace(ws);
    if (branch_parts_ > 1) {
      ws.branch_value.resize(quadrature_.size());
      ws.branch_taken.resize(quadrature_.size(), 0);
      ws.section = std::make_unique<util::ThreadPool::RangeSection>();
    }
  }
  if (branch_parts_ > 1) {
    // Shared replica pool: at most (pool workers + concurrent simulate
    // callers) partitions can execute at any instant, and never more than
    // every primary's partitions together — far below one replica set per
    // primary (O(workers²)).
    const std::size_t replicas =
        std::min(options_.branch_pool->worker_count() + workers,
                 workers * branch_parts_);
    branch_workspaces_.resize(replicas);
    free_branch_.resize(replicas);
    for (std::size_t i = 0; i < replicas; ++i) {
      branch_workspaces_[i] = std::make_unique<Workspace>();
      init_workspace(*branch_workspaces_[i]);
      free_branch_[i] = branch_workspaces_[i].get();
    }
    branch_free_ = replicas;
  }
  free_workspaces_.reserve(workers);
  for (auto& ws : workspaces_) free_workspaces_.push_back(&ws);
}

LookaheadEngine::Workspace* LookaheadEngine::acquire_branch_workspace() {
  std::unique_lock lock(branch_mutex_);
  branch_cv_.wait(lock, [&] { return branch_free_ > 0; });
  Workspace* ws = free_branch_[branch_head_];
  branch_head_ = (branch_head_ + 1) % free_branch_.size();
  --branch_free_;
  return ws;
}

void LookaheadEngine::release_branch_workspace(Workspace* ws) {
  {
    std::lock_guard lock(branch_mutex_);
    free_branch_[(branch_head_ + branch_free_) % free_branch_.size()] = ws;
    ++branch_free_;
  }
  branch_cv_.notify_one();
}

void LookaheadEngine::begin_decision(const std::vector<Sample>& samples,
                                     double remaining_budget,
                                     std::uint64_t fit_seed) {
  ++epoch_;
  const std::size_t space = problem_.space->size();

  root_rows_.clear();
  root_y_.clear();
  root_feasible_.clear();
  for (const auto& s : samples) {
    root_rows_.push_back(s.id);
    root_y_.push_back(s.cost);
    root_feasible_.push_back(s.feasible ? 1 : 0);
  }
  root_beta_ = remaining_budget;
  root_chi_ = samples.empty() ? std::nullopt
                              : std::optional<ConfigId>(samples.back().id);

  // Ascending untested candidate list — the only place testedness is
  // materialized; the recursion shrinks the list instead of re-deriving it.
  tested_.assign(space, 0);
  for (const auto& s : samples) tested_[s.id] = 1;
  root_cands_.clear();
  for (std::size_t id = 0; id < space; ++id) {
    if (tested_[id] == 0) root_cands_.push_back(static_cast<ConfigId>(id));
  }

  // Root fit + the decision's one full-space prediction.
  root_model_->fit(fm_, root_rows_, root_y_, fit_seed);
  root_model_->predict_all(fm_, root_preds_);

  // Incumbent y*: cheapest feasible sample, else the paper's fallback.
  {
    bool any = false;
    double best = 0.0;
    double most_expensive = root_y_.front();
    for (std::size_t i = 0; i < root_y_.size(); ++i) {
      most_expensive = std::max(most_expensive, root_y_[i]);
      if (root_feasible_[i] != 0 && (!any || root_y_[i] < best)) {
        best = root_y_[i];
        any = true;
      }
    }
    if (any) {
      y_star_ = best;
    } else {
      double max_stddev = 0.0;
      for (ConfigId id : root_cands_) {
        max_stddev = std::max(max_stddev, root_preds_[id].stddev);
      }
      y_star_ = most_expensive + 3.0 * max_stddev;
    }
  }

  // Fused root acquisition pass: one sweep computes P(c ≤ β) and EIc per
  // untested candidate; the Γ filter, the stop rule's max EIc and the
  // screening score all read the stored results.
  viable_.clear();
  max_viable_eic_ = 0.0;
  for (ConfigId id : root_cands_) {
    if (!budget_viable(root_beta_, root_preds_[id])) continue;
    const double e = constrained_ei(y_star_, root_preds_[id],
                                    problem_.feasibility_cost_cap(id));
    viable_.push_back(id);
    eic_by_id_[id] = e;
    max_viable_eic_ = std::max(max_viable_eic_, e);
  }
}

void LookaheadEngine::screened_roots(unsigned width,
                                     std::vector<ConfigId>& out) const {
  out.assign(viable_.begin(), viable_.end());
  if (width == 0 || out.size() <= width) return;
  std::partial_sort(
      out.begin(), out.begin() + width, out.end(),
      [&](ConfigId a, ConfigId b) {
        const double sa =
            eic_by_id_[a] / std::max(root_preds_[a].mean, 1e-12);
        const double sb =
            eic_by_id_[b] / std::max(root_preds_[b].mean, 1e-12);
        return sa > sb;
      });
  out.resize(width);
}

LookaheadEngine::Workspace* LookaheadEngine::acquire_workspace() {
  std::lock_guard lock(pool_mutex_);
  if (free_workspaces_.empty()) {
    throw std::logic_error(
        "LookaheadEngine: more concurrent simulations than workers");
  }
  Workspace* ws = free_workspaces_.back();
  free_workspaces_.pop_back();
  return ws;
}

void LookaheadEngine::release_workspace(Workspace* ws) {
  std::lock_guard lock(pool_mutex_);
  free_workspaces_.push_back(ws);
}

void LookaheadEngine::sync_workspace(Workspace& ws) {
  // Sync the workspace's path state Σ with this decision's root once; the
  // recursion fully reverts its deltas, so the state stays at the root
  // between uses within one decision.
  if (ws.epoch != epoch_) {
    ws.rows.assign(root_rows_.begin(), root_rows_.end());
    ws.y.assign(root_y_.begin(), root_y_.end());
    ws.feasible.assign(root_feasible_.begin(), root_feasible_.end());
  }
  // Invalid while the recursion holds un-reverted deltas: if fit/predict
  // throws mid-path, the next use of this workspace must resync instead
  // of trusting a corrupted state. Callers restore `epoch` on success.
  ws.epoch = 0;
}

PathValue LookaheadEngine::simulate(ConfigId root, std::uint64_t path_seed) {
  Workspace* ws = acquire_workspace();
  struct Release {
    LookaheadEngine* self;
    Workspace* ws;
    ~Release() { self->release_workspace(ws); }
  } release{this, ws};

  sync_workspace(*ws);

  const model::Prediction& pred = root_preds_[root];
  const PathValue v =
      explore(*ws, 0, root, pred.mean, pred.stddev, eic_by_id_[root],
              root_beta_, root_chi_, root_cands_, options_.lookahead,
              path_seed);
  ws->epoch = epoch_;
  return v;
}

PathValue LookaheadEngine::explore(Workspace& ws, std::size_t depth,
                                   ConfigId x, double x_mean, double x_stddev,
                                   double x_eic, double beta,
                                   const std::optional<ConfigId>& chi,
                                   const std::vector<std::uint32_t>& cands,
                                   unsigned steps_left,
                                   std::uint64_t path_seed) {
  const double switch_cost = setup_cost(chi, x);
  PathValue v;
  v.reward = x_eic;
  v.cost = x_mean + switch_cost;
  if (steps_left == 0) return v;

  Level& lvl = ws.levels[depth];
  quadrature_.for_normal_into(x_mean, x_stddev, lvl.nodes.data());
  const double cap = problem_.feasibility_cost_cap(x);

  // Child candidate set: the parent's candidates minus x, which the branch
  // below speculatively tests. Ascending order is preserved, which keeps
  // the argmax tie-breaking identical to a full ascending-id scan.
  lvl.cands.clear();
  for (std::uint32_t id : cands) {
    if (id != x) lvl.cands.push_back(id);
  }

  const std::size_t k = lvl.nodes.size();
  if (depth == 0 && branch_parts_ > 1 && k > 1) {
    // Branch-parallel fan-out (pooled-determinism contract, see the
    // header): the k branches are statically range-partitioned across the
    // pool, each partition running on its own workspace replica against
    // the read-only shared node inputs (lvl.nodes / lvl.cands and the
    // root state). Each branch writes its contribution into its own slot;
    // the reduction below runs on this thread in ascending branch order,
    // reproducing the serial loop's accumulation order bit-for-bit.
    struct Ctx {
      LookaheadEngine* self;
      Workspace* ws;
      const Level* shared;
      ConfigId x;
      double x_mean, switch_cost, beta, cap;
      unsigned steps_left;
      std::uint64_t path_seed;
    } ctx{this, &ws, &lvl, x, x_mean, switch_cost, beta, cap, steps_left,
          path_seed};
    options_.branch_pool->parallel_ranges(
        *ws.section, k, branch_parts_,
        [](void* p, std::size_t, std::size_t b, std::size_t e) {
          auto& c = *static_cast<Ctx*>(p);
          Workspace* bw = c.self->acquire_branch_workspace();
          struct Release {
            LookaheadEngine* self;
            Workspace* ws;
            ~Release() { self->release_branch_workspace(ws); }
          } release{c.self, bw};
          c.self->sync_workspace(*bw);
          for (std::size_t i = b; i < e; ++i) {
            PathValue sub;
            c.ws->branch_taken[i] =
                c.self->explore_branch(*bw, 0, i, c.x, c.x_mean,
                                       c.switch_cost, c.beta, c.cap,
                                       *c.shared, c.steps_left, c.path_seed,
                                       sub)
                    ? 1
                    : 0;
            c.ws->branch_value[i] = sub;
          }
          bw->epoch = c.self->epoch_;
        },
        &ctx);
    for (std::size_t i = 0; i < k; ++i) {
      if (ws.branch_taken[i] == 0) continue;
      const double wi = lvl.nodes[i].weight;
      v.cost += wi * ws.branch_value[i].cost;
      v.reward += options_.gamma * wi * ws.branch_value[i].reward;
    }
    return v;
  }

  for (std::size_t i = 0; i < k; ++i) {
    PathValue sub;
    if (explore_branch(ws, depth, i, x, x_mean, switch_cost, beta, cap, lvl,
                       steps_left, path_seed, sub)) {
      const double wi = lvl.nodes[i].weight;
      v.cost += wi * sub.cost;
      v.reward += options_.gamma * wi * sub.reward;
    }
    // else: no viable continuation (lines 15-16) — the branch contributes
    // only the root step.
  }
  return v;
}

bool LookaheadEngine::explore_branch(Workspace& ws, std::size_t depth,
                                     std::size_t i, ConfigId x, double x_mean,
                                     double switch_cost, double beta,
                                     double cap, const Level& shared,
                                     unsigned steps_left,
                                     std::uint64_t path_seed, PathValue& out) {
  Level& lvl = ws.levels[depth];
  // Speculated cost: a run can never be free or negative; clamp to a
  // small fraction of the predicted mean.
  const double ci = std::max(shared.nodes[i].value, 0.001 * x_mean);

  // Apply the delta Σ → Σ' (Algorithm 2, lines 8-13): push the fantasy
  // sample instead of copying the state.
  ws.rows.push_back(x);
  ws.y.push_back(ci);
  ws.feasible.push_back(ci <= cap ? 1 : 0);
  const double child_beta = beta - ci - switch_cost;

  // Branch model: incremental mode copies the parent node's fitted
  // ensemble and appends the one fantasy sample (Σ' = Σ + {(x, ci)});
  // otherwise refit from scratch on the delta state. Same derive_seed
  // call structure either way (see the header's determinism contract).
  const std::uint64_t branch_seed = util::derive_seed(path_seed, i + 1);
  model::Regressor* node_model;
  if (incremental_ok_) {
    const model::Regressor& parent =
        depth == 0 ? *root_model_ : *ws.levels[depth - 1].inc_model;
    lvl.inc_model->assign_fitted(parent);
    lvl.inc_model->append_and_update(fm_, x, ci, branch_seed);
    node_model = lvl.inc_model.get();
  } else {
    ws.model->fit(fm_, ws.rows, ws.y, branch_seed);
    node_model = ws.model.get();
  }
  // One batched prediction over the shrinking candidate list. The bagging
  // ensemble serves this from its flat (structure-of-arrays) tree layout
  // with ensemble-owned scratch, so the call is allocation-free after the
  // model's first batch and bitwise equal to per-row predict() (the
  // Regressor batched-prediction contract the trajectory goldens pin).
  node_model->predict_subset(fm_, shared.cands, lvl.preds);
  const double y_star = state_incumbent(ws.y, ws.feasible, lvl.preds);

  // Fused NextStep (Algorithm 2, lines 21-25): one pass computes the
  // budget-viability probability and EIc per candidate and keeps the
  // running argmax. Since EI <= max(y*-µ, 0) + σ·φ(0) and the
  // feasibility factor is <= 1, a candidate whose cheap upper bound
  // cannot *strictly* beat the running best is skipped without
  // evaluating the cdf/pdf pair — the argmax (first index attaining the
  // max, ties broken by scan order) is unchanged. The bound holds with
  // slack >= σ·φ(0) (σ has a positive floor in both models), orders of
  // magnitude above floating-point error in the compared expressions.
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_j = shared.cands.size();
  for (std::size_t j = 0; j < shared.cands.size(); ++j) {
    const model::Prediction& p = lvl.preds[j];
    if (!budget_viable(child_beta, p)) continue;
    const double upper = std::max(y_star - p.mean, 0.0) + p.stddev * kPhi0;
    if (upper <= best) continue;
    const double acq = constrained_ei(
        y_star, p, problem_.feasibility_cost_cap(shared.cands[j]));
    if (acq > best) {
      best = acq;
      best_j = j;
    }
  }

  const bool taken = best_j != shared.cands.size();
  if (taken) {
    out = explore(ws, depth + 1, static_cast<ConfigId>(shared.cands[best_j]),
                  lvl.preds[best_j].mean, lvl.preds[best_j].stddev, best,
                  child_beta, x, shared.cands, steps_left - 1,
                  util::derive_seed(path_seed, 131 * (i + 1) + 7));
  }

  // Revert the delta: Σ' → Σ.
  ws.rows.pop_back();
  ws.y.pop_back();
  ws.feasible.pop_back();
  return taken;
}

// ---------------------------------------------------------------------------
// MultiConstraintEngine
// ---------------------------------------------------------------------------

MultiConstraintEngine::MultiConstraintEngine(
    const OptimizationProblem& problem, Options options,
    const model::ModelFactory& factory, std::size_t workers)
    : problem_(problem),
      options_(std::move(options)),
      fm_(*problem.space),
      quadrature_(options_.gh_points) {
  if (workers == 0) {
    throw std::invalid_argument(
        "MultiConstraintEngine: need at least one worker");
  }
  for (const auto& t : options_.thresholds) {
    if (!t) {
      throw std::invalid_argument(
          "MultiConstraintEngine: threshold function is required");
    }
  }
  viable_z_ = math::norm_cdf_ge_boundary(options_.feasibility_quantile);

  const std::size_t space = problem_.space->size();
  const std::size_t n_constraints = options_.thresholds.size();
  const std::size_t vars = 1 + n_constraints;
  const std::size_t k = quadrature_.size();

  // Joint-speculation branching factor K^(I+1); the flat combo buffers are
  // sized for the unpruned worst case once, here.
  std::size_t combo_cap = 1;
  for (std::size_t v = 0; v < vars; ++v) {
    if (combo_cap > (std::size_t{1} << 16) / k) {
      throw std::invalid_argument(
          "MultiConstraintEngine: gh_points^(constraints+1) too large");
    }
    combo_cap *= k;
  }

  // Thresholds and feasibility caps are pure functions of the id —
  // evaluate them once instead of per candidate per node.
  caps_.resize(space);
  for (std::size_t id = 0; id < space; ++id) {
    caps_[id] = problem_.feasibility_cost_cap(static_cast<ConfigId>(id));
  }
  threshold_by_id_.resize(n_constraints);
  for (std::size_t c = 0; c < n_constraints; ++c) {
    threshold_by_id_[c].resize(space);
    for (std::size_t id = 0; id < space; ++id) {
      threshold_by_id_[c][id] =
          options_.thresholds[c](static_cast<ConfigId>(id));
    }
  }

  root_models_.reserve(vars);
  for (std::size_t obj = 0; obj < vars; ++obj) {
    root_models_.push_back(factory());
  }
  if (options_.incremental_refit && options_.lookahead > 0) {
    // Capture bootstrap membership on every objective model (skipped at
    // lookahead 0, where no branch model ever exists); a model without an
    // incremental path declines and the engine falls back to from-scratch
    // branch refits.
    incremental_ok_ = true;
    for (auto& m : root_models_) {
      incremental_ok_ =
          incremental_ok_ && m->enable_incremental(options_.lookahead);
    }
  }
  root_preds_.resize(vars);
  root_rows_.reserve(space);
  root_y_cost_.reserve(space);
  root_feasible_.reserve(space);
  root_y_metric_.resize(n_constraints);
  for (auto& m : root_y_metric_) m.reserve(space);
  root_cands_.reserve(space);
  tested_.reserve(space);
  viable_.reserve(space);
  eic_by_id_.resize(space, 0.0);
  root_mpred_scratch_.resize(n_constraints);

  // Static partitions of the depth-0 combo fan-out (pooled-determinism
  // contract): never more than the worst-case unpruned combo count.
  if (options_.branch_pool != nullptr && options_.lookahead > 0) {
    branch_parts_ = std::min<std::size_t>(
        options_.branch_pool->worker_count() + 1, combo_cap);
    if (branch_parts_ == 0) branch_parts_ = 1;
  }

  const auto init_workspace = [&](Workspace& ws) {
    ws.models.reserve(vars);
    for (std::size_t obj = 0; obj < vars; ++obj) {
      ws.models.push_back(factory());
    }
    const std::size_t max_samples = space + options_.lookahead + 1;
    ws.rows.reserve(max_samples);
    ws.y_cost.reserve(max_samples);
    ws.feasible.reserve(max_samples);
    ws.y_metric.resize(n_constraints);
    for (auto& m : ws.y_metric) m.reserve(max_samples);
    ws.root_x_pred.resize(vars);
    ws.levels.resize(options_.lookahead);
    for (auto& lvl : ws.levels) {
      lvl.cands.reserve(space);
      lvl.cost_preds.reserve(space);
      lvl.metric_preds.resize(n_constraints);
      for (auto& m : lvl.metric_preds) m.reserve(space);
      lvl.nodes.resize(vars * k);
      lvl.radix.resize(vars);
      lvl.combo_cost.reserve(combo_cap);
      lvl.combo_weight.reserve(combo_cap);
      lvl.combo_metric.reserve(combo_cap * n_constraints);
      lvl.x_pred.resize(vars);
      if (incremental_ok_) {
        lvl.inc_models.resize(vars);
        for (std::size_t obj = 0; obj < vars; ++obj) {
          lvl.inc_models[obj] = factory();
          incremental_ok_ =
              incremental_ok_ &&
              lvl.inc_models[obj]->enable_incremental(options_.lookahead);
        }
      }
    }
  };

  workspaces_.resize(workers);
  for (auto& ws : workspaces_) {
    init_workspace(ws);
    if (branch_parts_ > 1) {
      ws.branch_value.resize(combo_cap);
      ws.branch_taken.resize(combo_cap, 0);
      ws.section = std::make_unique<util::ThreadPool::RangeSection>();
    }
  }
  if (branch_parts_ > 1) {
    // Shared replica pool (see LookaheadEngine): sized to the maximum
    // number of simultaneously executing partitions, not per primary.
    const std::size_t replicas =
        std::min(options_.branch_pool->worker_count() + workers,
                 workers * branch_parts_);
    branch_workspaces_.resize(replicas);
    free_branch_.resize(replicas);
    for (std::size_t i = 0; i < replicas; ++i) {
      branch_workspaces_[i] = std::make_unique<Workspace>();
      init_workspace(*branch_workspaces_[i]);
      free_branch_[i] = branch_workspaces_[i].get();
    }
    branch_free_ = replicas;
  }
  free_workspaces_.reserve(workers);
  for (auto& ws : workspaces_) free_workspaces_.push_back(&ws);
}

MultiConstraintEngine::Workspace*
MultiConstraintEngine::acquire_branch_workspace() {
  std::unique_lock lock(branch_mutex_);
  branch_cv_.wait(lock, [&] { return branch_free_ > 0; });
  Workspace* ws = free_branch_[branch_head_];
  branch_head_ = (branch_head_ + 1) % free_branch_.size();
  --branch_free_;
  return ws;
}

void MultiConstraintEngine::release_branch_workspace(Workspace* ws) {
  {
    std::lock_guard lock(branch_mutex_);
    free_branch_[(branch_head_ + branch_free_) % free_branch_.size()] = ws;
    ++branch_free_;
  }
  branch_cv_.notify_one();
}

void MultiConstraintEngine::begin_decision(
    const std::vector<std::uint32_t>& rows, const std::vector<double>& y_cost,
    const std::vector<std::vector<double>>& y_metric,
    const std::vector<char>& feasible, double remaining_budget,
    std::uint64_t fit_seed) {
  const std::size_t n_constraints = options_.thresholds.size();
  if (y_metric.size() != n_constraints || rows.size() != y_cost.size() ||
      rows.size() != feasible.size() || rows.empty()) {
    throw std::invalid_argument(
        "MultiConstraintEngine::begin_decision: malformed root state");
  }
  ++epoch_;
  const std::size_t space = problem_.space->size();

  root_rows_.assign(rows.begin(), rows.end());
  root_y_cost_.assign(y_cost.begin(), y_cost.end());
  for (std::size_t c = 0; c < n_constraints; ++c) {
    root_y_metric_[c].assign(y_metric[c].begin(), y_metric[c].end());
  }
  root_feasible_.assign(feasible.begin(), feasible.end());
  root_beta_ = remaining_budget;

  tested_.assign(space, 0);
  for (std::uint32_t id : root_rows_) tested_[id] = 1;
  root_cands_.clear();
  for (std::size_t id = 0; id < space; ++id) {
    if (tested_[id] == 0) root_cands_.push_back(static_cast<ConfigId>(id));
  }

  // Root fits + full-space predictions for every objective.
  root_models_[0]->fit(fm_, root_rows_, root_y_cost_,
                       util::derive_seed(fit_seed, 0));
  root_models_[0]->predict_all(fm_, root_preds_[0]);
  for (std::size_t c = 0; c < n_constraints; ++c) {
    root_models_[c + 1]->fit(fm_, root_rows_, root_y_metric_[c],
                             util::derive_seed(fit_seed, c + 1));
    root_models_[c + 1]->predict_all(fm_, root_preds_[c + 1]);
  }

  // Incumbent y*: cheapest feasible sample, else the paper's fallback over
  // the untested cost predictions (replicates McSimulator::build_ctx).
  {
    bool any = false;
    double best = 0.0;
    double most_expensive = root_y_cost_.front();
    for (std::size_t i = 0; i < root_y_cost_.size(); ++i) {
      most_expensive = std::max(most_expensive, root_y_cost_[i]);
      if (root_feasible_[i] != 0 && (!any || root_y_cost_[i] < best)) {
        best = root_y_cost_[i];
        any = true;
      }
    }
    if (any) {
      y_star_ = best;
    } else {
      double max_stddev = 0.0;
      for (ConfigId id : root_cands_) {
        max_stddev = std::max(max_stddev, root_preds_[0][id].stddev);
      }
      y_star_ = most_expensive + 3.0 * max_stddev;
    }
  }

  // Fused root pass: the Γ filter plus the root EIc of every viable
  // candidate (the depth-0 reward of its simulated path).
  viable_.clear();
  for (ConfigId id : root_cands_) {
    if (!budget_viable(root_beta_, root_preds_[0][id])) continue;
    viable_.push_back(id);
    for (std::size_t c = 0; c < n_constraints; ++c) {
      root_mpred_scratch_[c] = root_preds_[c + 1][id];
    }
    eic_by_id_[id] = mc_eic(y_star_, id, root_preds_[0][id],
                            root_mpred_scratch_.data());
  }
}

double MultiConstraintEngine::mc_eic(
    double y_star, ConfigId x, const model::Prediction& cost_pred,
    const model::Prediction* metric_preds) const {
  double acq = expected_improvement(y_star, cost_pred);
  if (acq <= 0.0) return 0.0;
  acq *= prob_within(caps_[x], cost_pred);
  for (std::size_t c = 0; c < options_.thresholds.size(); ++c) {
    acq *= prob_within(threshold_by_id_[c][x], metric_preds[c]);
  }
  return acq;
}

std::size_t MultiConstraintEngine::speculate(
    Level& lvl, const model::Prediction* x_preds) const {
  const std::size_t n_constraints = options_.thresholds.size();
  const std::size_t vars = 1 + n_constraints;
  const std::size_t k = quadrature_.size();
  for (std::size_t obj = 0; obj < vars; ++obj) {
    quadrature_.for_normal_into(x_preds[obj].mean, x_preds[obj].stddev,
                                lvl.nodes.data() + obj * k);
  }
  const double cost_floor = 0.001 * std::max(x_preds[0].mean, 1e-12);

  lvl.combo_cost.clear();
  lvl.combo_weight.clear();
  lvl.combo_metric.clear();
  std::fill(lvl.radix.begin(), lvl.radix.end(), 0);
  double kept_mass = 0.0;
  for (;;) {
    const double cost = std::max(lvl.nodes[lvl.radix[0]].value, cost_floor);
    double w = lvl.nodes[lvl.radix[0]].weight;
    const std::size_t metric_base = lvl.combo_metric.size();
    for (std::size_t c = 0; c < n_constraints; ++c) {
      const auto& node = lvl.nodes[(c + 1) * k + lvl.radix[c + 1]];
      // Physical metrics (energy, latency, ...) are non-negative.
      lvl.combo_metric.push_back(std::max(node.value, 0.0));
      w *= node.weight;
    }
    if (w >= options_.prune_weight) {
      kept_mass += w;
      lvl.combo_cost.push_back(cost);
      lvl.combo_weight.push_back(w);
    } else {
      lvl.combo_metric.resize(metric_base);
    }
    // Advance the mixed-radix index (cost varies fastest, like the
    // reference's Cartesian loop).
    std::size_t d = 0;
    while (d < vars && ++lvl.radix[d] == k) {
      lvl.radix[d] = 0;
      ++d;
    }
    if (d == vars) break;
  }
  if (kept_mass > 0.0) {
    for (double& w : lvl.combo_weight) w /= kept_mass;
  }
  return lvl.combo_cost.size();
}

MultiConstraintEngine::Workspace* MultiConstraintEngine::acquire_workspace() {
  std::lock_guard lock(pool_mutex_);
  if (free_workspaces_.empty()) {
    throw std::logic_error(
        "MultiConstraintEngine: more concurrent simulations than workers");
  }
  Workspace* ws = free_workspaces_.back();
  free_workspaces_.pop_back();
  return ws;
}

void MultiConstraintEngine::release_workspace(Workspace* ws) {
  std::lock_guard lock(pool_mutex_);
  free_workspaces_.push_back(ws);
}

void MultiConstraintEngine::sync_workspace(Workspace& ws) {
  const std::size_t n_constraints = options_.thresholds.size();
  // Sync the workspace's path state Σ with this decision's root once; the
  // recursion fully reverts its deltas between uses within one decision.
  if (ws.epoch != epoch_) {
    ws.rows.assign(root_rows_.begin(), root_rows_.end());
    ws.y_cost.assign(root_y_cost_.begin(), root_y_cost_.end());
    for (std::size_t c = 0; c < n_constraints; ++c) {
      ws.y_metric[c].assign(root_y_metric_[c].begin(),
                            root_y_metric_[c].end());
    }
    ws.feasible.assign(root_feasible_.begin(), root_feasible_.end());
  }
  // Invalid while the recursion holds un-reverted deltas (see
  // LookaheadEngine::sync_workspace).
  ws.epoch = 0;
}

PathValue MultiConstraintEngine::simulate(ConfigId root,
                                          std::uint64_t path_seed) {
  Workspace* ws = acquire_workspace();
  struct Release {
    MultiConstraintEngine* self;
    Workspace* ws;
    ~Release() { self->release_workspace(ws); }
  } release{this, ws};

  sync_workspace(*ws);

  for (std::size_t obj = 0; obj < ws->root_x_pred.size(); ++obj) {
    ws->root_x_pred[obj] = root_preds_[obj][root];
  }
  const PathValue v =
      explore(*ws, 0, root, ws->root_x_pred.data(), eic_by_id_[root],
              root_beta_, root_cands_, options_.lookahead, path_seed);
  ws->epoch = epoch_;
  return v;
}

PathValue MultiConstraintEngine::explore(
    Workspace& ws, std::size_t depth, ConfigId x,
    const model::Prediction* x_preds, double x_eic, double beta,
    const std::vector<std::uint32_t>& cands, unsigned steps_left,
    std::uint64_t path_seed) {
  PathValue v;
  v.reward = x_eic;
  v.cost = x_preds[0].mean;
  if (steps_left == 0) return v;

  Level& lvl = ws.levels[depth];
  const std::size_t n_combos = speculate(lvl, x_preds);

  // Child candidate set: the parent's candidates minus x (ascending order
  // preserved — argmax tie-breaking stays identical to a full id scan).
  lvl.cands.clear();
  for (std::uint32_t id : cands) {
    if (id != x) lvl.cands.push_back(id);
  }

  const double cap_x = caps_[x];
  if (depth == 0 && branch_parts_ > 1 && n_combos > 1) {
    // Branch-parallel combo fan-out (pooled-determinism contract, see the
    // header): the pruned combos are statically range-partitioned across
    // the pool, each partition on its own workspace replica against the
    // read-only shared buffers (lvl.combo_*, lvl.cands, root state). The
    // reduction below runs on this thread in ascending combo order —
    // bit-for-bit the serial loop's accumulation order.
    struct Ctx {
      MultiConstraintEngine* self;
      Workspace* ws;
      const Level* shared;
      ConfigId x;
      double cap_x, beta;
      unsigned steps_left;
      std::uint64_t path_seed;
    } ctx{this, &ws, &lvl, x, cap_x, beta, steps_left, path_seed};
    options_.branch_pool->parallel_ranges(
        *ws.section, n_combos, branch_parts_,
        [](void* p, std::size_t, std::size_t b, std::size_t e) {
          auto& c = *static_cast<Ctx*>(p);
          Workspace* bw = c.self->acquire_branch_workspace();
          struct Release {
            MultiConstraintEngine* self;
            Workspace* ws;
            ~Release() { self->release_branch_workspace(ws); }
          } release{c.self, bw};
          c.self->sync_workspace(*bw);
          for (std::size_t i = b; i < e; ++i) {
            PathValue sub;
            c.ws->branch_taken[i] =
                c.self->explore_branch(*bw, 0, i, c.x, c.cap_x, c.beta,
                                       *c.shared, c.steps_left, c.path_seed,
                                       sub)
                    ? 1
                    : 0;
            c.ws->branch_value[i] = sub;
          }
          bw->epoch = c.self->epoch_;
        },
        &ctx);
    for (std::size_t i = 0; i < n_combos; ++i) {
      if (ws.branch_taken[i] == 0) continue;
      const double wi = lvl.combo_weight[i];
      v.cost += wi * ws.branch_value[i].cost;
      v.reward += options_.gamma * wi * ws.branch_value[i].reward;
    }
    return v;
  }

  for (std::size_t i = 0; i < n_combos; ++i) {
    PathValue sub;
    if (explore_branch(ws, depth, i, x, cap_x, beta, lvl, steps_left,
                       path_seed, sub)) {
      const double wi = lvl.combo_weight[i];
      v.cost += wi * sub.cost;
      v.reward += options_.gamma * wi * sub.reward;
    }
    // else: no viable continuation — the branch contributes only its root
    // step (replicates the reference's `continue`).
  }
  return v;
}

bool MultiConstraintEngine::explore_branch(Workspace& ws, std::size_t depth,
                                           std::size_t i, ConfigId x,
                                           double cap_x, double beta,
                                           const Level& shared,
                                           unsigned steps_left,
                                           std::uint64_t path_seed,
                                           PathValue& out) {
  const std::size_t n_constraints = options_.thresholds.size();
  Level& lvl = ws.levels[depth];
  const double ci = shared.combo_cost[i];
  const double* mi = shared.combo_metric.data() + i * n_constraints;

  bool feas = ci <= cap_x;
  for (std::size_t c = 0; feas && c < n_constraints; ++c) {
    if (mi[c] > threshold_by_id_[c][x]) feas = false;
  }

  // Apply the delta Σ → Σ': push the fantasy sample on every objective.
  ws.rows.push_back(x);
  ws.y_cost.push_back(ci);
  for (std::size_t c = 0; c < n_constraints; ++c) {
    ws.y_metric[c].push_back(mi[c]);
  }
  ws.feasible.push_back(feas ? 1 : 0);
  const double child_beta = beta - ci;

  // Refit every objective model with the fantasy sample (same derived
  // seed structure as McSimulator::build_ctx) and predict the shrinking
  // candidate subset per objective — O(candidates · (I+1)) batched work
  // instead of the reference's (I+1) full-space predictions plus state
  // copies. Incremental mode replaces each from-scratch refit with a
  // copy of the parent node's fitted model plus one appended sample
  // (see the header's determinism contract).
  const std::uint64_t branch_seed = util::derive_seed(path_seed, i + 1);
  if (incremental_ok_) {
    for (std::size_t obj = 0; obj < lvl.inc_models.size(); ++obj) {
      const model::Regressor& parent =
          depth == 0 ? *root_models_[obj]
                     : *ws.levels[depth - 1].inc_models[obj];
      lvl.inc_models[obj]->assign_fitted(parent);
      lvl.inc_models[obj]->append_and_update(
          fm_, x, obj == 0 ? ci : mi[obj - 1],
          util::derive_seed(branch_seed, obj));
    }
    lvl.inc_models[0]->predict_subset(fm_, shared.cands, lvl.cost_preds);
    for (std::size_t c = 0; c < n_constraints; ++c) {
      lvl.inc_models[c + 1]->predict_subset(fm_, shared.cands,
                                            lvl.metric_preds[c]);
    }
  } else {
    ws.models[0]->fit(fm_, ws.rows, ws.y_cost,
                      util::derive_seed(branch_seed, 0));
    ws.models[0]->predict_subset(fm_, shared.cands, lvl.cost_preds);
    for (std::size_t c = 0; c < n_constraints; ++c) {
      ws.models[c + 1]->fit(fm_, ws.rows, ws.y_metric[c],
                            util::derive_seed(branch_seed, c + 1));
      ws.models[c + 1]->predict_subset(fm_, shared.cands,
                                       lvl.metric_preds[c]);
    }
  }
  const double y_star = state_incumbent(ws.y_cost, ws.feasible,
                                        lvl.cost_preds);

  // Fused NextStep: budget viability via the exact cdf-boundary compare,
  // then the cost-only EI upper bound (every probability factor of the
  // multi-constraint EIc is <= 1, so the single-constraint bound holds a
  // fortiori). The EIc product only shrinks as factors are multiplied
  // in, so a partial product that cannot *strictly* beat the running
  // best exits the candidate without evaluating the remaining cdfs —
  // the argmax (first index attaining the max, ties broken by scan
  // order) is unchanged.
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_j = shared.cands.size();
  for (std::size_t j = 0; j < shared.cands.size(); ++j) {
    const model::Prediction& p = lvl.cost_preds[j];
    if (!budget_viable(child_beta, p)) continue;
    const double upper = std::max(y_star - p.mean, 0.0) + p.stddev * kPhi0;
    if (upper <= best) continue;
    const auto cid = static_cast<ConfigId>(shared.cands[j]);
    double acq = expected_improvement(y_star, p);
    if (acq > 0.0 && acq > best) {
      acq *= prob_within(caps_[cid], p);
      for (std::size_t c = 0; c < n_constraints && acq > best; ++c) {
        acq *= prob_within(threshold_by_id_[c][cid],
                           lvl.metric_preds[c][j]);
      }
    } else if (acq < 0.0) {
      acq = 0.0;
    }
    if (acq > best) {
      best = acq;
      best_j = j;
      lvl.x_pred[0] = p;
      for (std::size_t c = 0; c < n_constraints; ++c) {
        lvl.x_pred[c + 1] = lvl.metric_preds[c][j];
      }
    }
  }

  const bool taken = best_j != shared.cands.size();
  if (taken) {
    out = explore(ws, depth + 1, static_cast<ConfigId>(shared.cands[best_j]),
                  lvl.x_pred.data(), best, child_beta, shared.cands,
                  steps_left - 1, util::derive_seed(path_seed, 131 * i + 7));
  }

  // Revert the delta: Σ' → Σ.
  ws.rows.pop_back();
  ws.y_cost.pop_back();
  for (std::size_t c = 0; c < n_constraints; ++c) {
    ws.y_metric[c].pop_back();
  }
  ws.feasible.pop_back();
  return taken;
}

}  // namespace lynceus::core
