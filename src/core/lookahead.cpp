#include "core/lookahead.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/acquisition.hpp"
#include "math/distributions.hpp"

namespace lynceus::core {

namespace {

/// Incumbent for a (root or simulated) state: cheapest feasible sample, or
/// the paper's fallback — max sampled cost + 3 · the max predictive stddev
/// `stddev(k)` over the n untested candidates. The scan order replicates
/// the naive references exactly.
template <class Stddev>
double state_incumbent(const std::vector<double>& y,
                       const std::vector<char>& feasible, std::size_t n,
                       Stddev stddev) {
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
  for (std::size_t k = 0; k < n; ++k) {
    max_stddev = std::max(max_stddev, stddev(k));
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

namespace detail {

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

std::size_t CostPolicy::speculate(Branches& b,
                                  const model::Prediction* x) const {
  quadrature_.for_normal_into(x[0].mean, x[0].stddev, b.nodes.data());
  // Speculated cost: a run can never be free or negative; clamp to a
  // small fraction of the predicted mean.
  b.cost_floor = 0.001 * x[0].mean;
  return b.nodes.size();
}

double CostPolicy::root_score(double y_star, ConfigId id,
                              const model::Prediction& cost,
                              const PredTable&, std::size_t) const {
  return constrained_ei(y_star, cost, problem_.feasibility_cost_cap(id));
}

MultiConstraintPolicy::MultiConstraintPolicy(
    const OptimizationProblem& problem, const Options& options,
    const math::GaussHermite& quadrature)
    : options_(options), quadrature_(quadrature) {
  for (const auto& t : options_.thresholds) {
    if (!t) {
      throw std::invalid_argument(
          "MultiConstraintEngine: threshold function is required");
    }
  }
  // Joint-speculation branching factor K^(I+1); the flat combo buffers are
  // sized for the unpruned worst case once, at construction.
  const std::size_t k = quadrature_.size();
  for (std::size_t v = 0; v < objectives(); ++v) {
    if (combo_cap_ > (std::size_t{1} << 16) / k) {
      throw std::invalid_argument(
          "MultiConstraintEngine: gh_points^(constraints+1) too large");
    }
    combo_cap_ *= k;
  }
  const std::size_t space = problem.space->size();
  caps_.resize(space);
  for (std::size_t id = 0; id < space; ++id) {
    caps_[id] = problem.feasibility_cost_cap(static_cast<ConfigId>(id));
  }
  threshold_by_id_.resize(options_.thresholds.size());
  for (std::size_t c = 0; c < threshold_by_id_.size(); ++c) {
    threshold_by_id_[c].resize(space);
    for (std::size_t id = 0; id < space; ++id) {
      threshold_by_id_[c][id] =
          options_.thresholds[c](static_cast<ConfigId>(id));
    }
  }
}

void MultiConstraintPolicy::init(Branches& b) const {
  b.constraints = options_.thresholds.size();
  b.nodes.resize(objectives() * quadrature_.size());
  b.radix.resize(objectives());
  b.combo_cost.reserve(combo_cap_);
  b.combo_weight.reserve(combo_cap_);
  b.combo_metric.reserve(combo_cap_ * b.constraints);
}

std::size_t MultiConstraintPolicy::speculate(
    Branches& b, const model::Prediction* x) const {
  const std::size_t vars = objectives();
  const std::size_t k = quadrature_.size();
  for (std::size_t obj = 0; obj < vars; ++obj) {
    quadrature_.for_normal_into(x[obj].mean, x[obj].stddev,
                                b.nodes.data() + obj * k);
  }
  const double cost_floor = 0.001 * std::max(x[0].mean, 1e-12);

  b.combo_cost.clear();
  b.combo_weight.clear();
  b.combo_metric.clear();
  std::fill(b.radix.begin(), b.radix.end(), 0);
  double kept_mass = 0.0;
  for (;;) {
    const double cost = std::max(b.nodes[b.radix[0]].value, cost_floor);
    double w = b.nodes[b.radix[0]].weight;
    const std::size_t metric_base = b.combo_metric.size();
    for (std::size_t c = 0; c < b.constraints; ++c) {
      const auto& node = b.nodes[(c + 1) * k + b.radix[c + 1]];
      // Physical metrics (energy, latency, ...) are non-negative.
      b.combo_metric.push_back(std::max(node.value, 0.0));
      w *= node.weight;
    }
    if (w >= options_.prune_weight) {
      kept_mass += w;
      b.combo_cost.push_back(cost);
      b.combo_weight.push_back(w);
    } else {
      b.combo_metric.resize(metric_base);
    }
    // Advance the mixed-radix index (cost varies fastest, like the
    // reference's Cartesian loop).
    std::size_t d = 0;
    while (d < vars && ++b.radix[d] == k) {
      b.radix[d] = 0;
      ++d;
    }
    if (d == vars) break;
  }
  if (kept_mass > 0.0) {
    for (double& w : b.combo_weight) w /= kept_mass;
  }
  return b.combo_cost.size();
}

bool MultiConstraintPolicy::fantasy_feasible(ConfigId x, double cost,
                                             const double* metrics) const {
  bool feas = cost <= caps_[x];
  for (std::size_t c = 0; feas && c < threshold_by_id_.size(); ++c) {
    if (metrics[c] > threshold_by_id_[c][x]) feas = false;
  }
  return feas;
}

double MultiConstraintPolicy::root_score(double y_star, ConfigId id,
                                         const model::Prediction& cost,
                                         const PredTable& preds,
                                         std::size_t j) const {
  double acq = expected_improvement(y_star, cost);
  if (acq <= 0.0) return 0.0;
  acq *= prob_within(caps_[id], cost);
  for (std::size_t c = 0; c < threshold_by_id_.size(); ++c) {
    acq *= prob_within(threshold_by_id_[c][id], preds[c + 1][j]);
  }
  return acq;
}

double MultiConstraintPolicy::scan_score(double y_star, ConfigId id,
                                         const model::Prediction& cost,
                                         const PredTable& preds,
                                         std::size_t j, double best) const {
  double acq = expected_improvement(y_star, cost);
  if (acq > 0.0 && acq > best) {
    acq *= prob_within(caps_[id], cost);
    for (std::size_t c = 0; c < threshold_by_id_.size() && acq > best; ++c) {
      acq *= prob_within(threshold_by_id_[c][id], preds[c + 1][j]);
    }
  } else if (acq < 0.0) {
    acq = 0.0;
  }
  return acq;
}

// ---------------------------------------------------------------------------
// PathSimulator
// ---------------------------------------------------------------------------

template <class Policy>
PathSimulator<Policy>::PathSimulator(const OptimizationProblem& problem,
                                     Options options,
                                     const model::ModelFactory& factory,
                                     std::size_t workers)
    : options_(std::move(options)),
      fm_(*problem.space),
      problem_(problem),
      quadrature_(options_.gh_points),
      policy_(problem, options_, quadrature_) {
  if (workers == 0) {
    throw std::invalid_argument(std::string(Policy::kName) +
                                ": need at least one worker");
  }
  viable_z_ = math::norm_cdf_ge_boundary(options_.feasibility_quantile);
  const std::size_t space = problem_.space->size();
  const std::size_t objectives = policy_.objectives();
  root_models_.resize(objectives);
  for (auto& m : root_models_) m = factory();
  if (options_.incremental_refit && options_.lookahead > 0) {
    // A path appends at most `lookahead` fantasy samples; enabling capture
    // pre-reserves for exactly that. At lookahead 0 no branch model ever
    // exists, so capture would be pure per-fit overhead and stays off.
    // Models without an incremental path (the GP) decline, and the engine
    // falls back to from-scratch refits.
    incremental_ok_ = true;
    for (auto& m : root_models_) {
      incremental_ok_ =
          incremental_ok_ && m->enable_incremental(options_.lookahead);
    }
  }
  root_rows_.reserve(space);
  root_y_.resize(objectives);
  for (auto& y : root_y_) y.reserve(space);
  root_feasible_.reserve(space);
  root_preds_.resize(objectives);
  root_cands_.reserve(space);
  tested_.reserve(space);
  viable_.reserve(space);
  eic_by_id_.resize(space, 0.0);

  // Static partitions of the depth-0 branch fan-out (pooled-determinism
  // contract): at most one per pool thread plus the caller, never more
  // than a node's worst-case branch count. 1 = serial, no replicas built.
  if (options_.branch_pool != nullptr && options_.lookahead > 0) {
    branch_parts_ = std::min<std::size_t>(
        options_.branch_pool->worker_count() + 1, policy_.max_branches());
    if (branch_parts_ == 0) branch_parts_ = 1;
  }

  const auto init_workspace = [&](Workspace& ws) {
    ws.models.resize(objectives);
    for (auto& m : ws.models) m = factory();
    // A path never holds more than every real sample plus one fantasy
    // sample per lookahead step.
    const std::size_t max_samples = space + options_.lookahead + 1;
    ws.rows.reserve(max_samples);
    ws.y.resize(objectives);
    for (auto& y : ws.y) y.reserve(max_samples);
    ws.feasible.reserve(max_samples);
    ws.root_x_pred.resize(objectives);
    ws.levels.resize(options_.lookahead);
    for (auto& lvl : ws.levels) {
      lvl.cands.reserve(space);
      lvl.preds.resize(objectives);
      for (auto& p : lvl.preds) p.reserve(space);
      lvl.x_pred.resize(objectives);
      policy_.init(lvl.branches);
      if (incremental_ok_) {
        lvl.inc_models.resize(objectives);
        for (auto& m : lvl.inc_models) {
          m = factory();
          incremental_ok_ =
              incremental_ok_ && m->enable_incremental(options_.lookahead);
        }
      }
    }
  };

  workspaces_.resize(workers);
  for (auto& ws : workspaces_) {
    init_workspace(ws);
    if (branch_parts_ > 1) {
      ws.branch_value.resize(policy_.max_branches());
      ws.branch_taken.resize(policy_.max_branches(), 0);
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

template <class Policy>
typename PathSimulator<Policy>::Workspace*
PathSimulator<Policy>::acquire_workspace() {
  std::lock_guard lock(pool_mutex_);
  if (free_workspaces_.empty()) {
    throw std::logic_error(std::string(Policy::kName) +
                           ": more concurrent simulations than workers");
  }
  Workspace* ws = free_workspaces_.back();
  free_workspaces_.pop_back();
  return ws;
}

template <class Policy>
void PathSimulator<Policy>::release_workspace(Workspace* ws) {
  std::lock_guard lock(pool_mutex_);
  free_workspaces_.push_back(ws);
}

template <class Policy>
typename PathSimulator<Policy>::Workspace*
PathSimulator<Policy>::acquire_branch_workspace() {
  std::unique_lock lock(branch_mutex_);
  branch_cv_.wait(lock, [&] { return branch_free_ > 0; });
  Workspace* ws = free_branch_[branch_head_];
  branch_head_ = (branch_head_ + 1) % free_branch_.size();
  --branch_free_;
  return ws;
}

template <class Policy>
void PathSimulator<Policy>::release_branch_workspace(Workspace* ws) {
  {
    std::lock_guard lock(branch_mutex_);
    free_branch_[(branch_head_ + branch_free_) % free_branch_.size()] = ws;
    ++branch_free_;
  }
  branch_cv_.notify_one();
}

template <class Policy>
void PathSimulator<Policy>::start_decision(double remaining_budget,
                                           std::uint64_t fit_seed) {
  ++epoch_;
  const std::size_t space = problem_.space->size();
  root_beta_ = remaining_budget;
  root_chi_ = root_rows_.empty()
                  ? std::nullopt
                  : std::optional<ConfigId>(root_rows_.back());

  // Ascending untested candidate list — the only place testedness is
  // materialized; the recursion shrinks the list instead of re-deriving it.
  tested_.assign(space, 0);
  for (std::uint32_t id : root_rows_) tested_[id] = 1;
  root_cands_.clear();
  for (std::size_t id = 0; id < space; ++id) {
    if (tested_[id] == 0) root_cands_.push_back(static_cast<ConfigId>(id));
  }

  // Root fits + the decision's one full-space prediction per objective.
  for (std::size_t obj = 0; obj < root_models_.size(); ++obj) {
    root_models_[obj]->fit(fm_, root_rows_, root_y_[obj],
                           Policy::fit_seed(fit_seed, obj));
    root_models_[obj]->predict_all(fm_, root_preds_[obj]);
  }
  const std::vector<model::Prediction>& cost_preds = root_preds_.front();
  y_star_ = state_incumbent(
      root_y_.front(), root_feasible_, root_cands_.size(),
      [&](std::size_t k) { return cost_preds[root_cands_[k]].stddev; });

  // Fused root acquisition pass: one sweep computes P(c ≤ β) and EIc per
  // untested candidate; the Γ filter, the stop rule's max EIc and the
  // screening score all read the stored results.
  viable_.clear();
  max_viable_eic_ = 0.0;
  for (ConfigId id : root_cands_) {
    if (!budget_viable(root_beta_, cost_preds[id])) continue;
    const double e =
        policy_.root_score(y_star_, id, cost_preds[id], root_preds_, id);
    viable_.push_back(id);
    eic_by_id_[id] = e;
    max_viable_eic_ = std::max(max_viable_eic_, e);
  }
}

template <class Policy>
void PathSimulator<Policy>::sync_workspace(Workspace& ws) {
  // Sync the workspace's path state Σ with this decision's root once; the
  // recursion fully reverts its deltas, so the state stays at the root
  // between uses within one decision.
  if (ws.epoch != epoch_) {
    ws.rows.assign(root_rows_.begin(), root_rows_.end());
    for (std::size_t obj = 0; obj < ws.y.size(); ++obj) {
      ws.y[obj].assign(root_y_[obj].begin(), root_y_[obj].end());
    }
    ws.feasible.assign(root_feasible_.begin(), root_feasible_.end());
  }
  // Invalid while the recursion holds un-reverted deltas: if fit/predict
  // throws mid-path, the next use of this workspace must resync instead
  // of trusting a corrupted state. Callers restore `epoch` on success.
  ws.epoch = 0;
}

template <class Policy>
PathValue PathSimulator<Policy>::simulate(ConfigId root,
                                          std::uint64_t path_seed) {
  Workspace* ws = acquire_workspace();
  struct Release {
    PathSimulator* self;
    Workspace* ws;
    ~Release() { self->release_workspace(ws); }
  } release{this, ws};

  sync_workspace(*ws);

  for (std::size_t obj = 0; obj < ws->root_x_pred.size(); ++obj) {
    ws->root_x_pred[obj] = root_preds_[obj][root];
  }
  const PathValue v =
      explore(*ws, 0, root, ws->root_x_pred.data(), eic_by_id_[root],
              root_beta_, root_chi_, root_cands_, options_.lookahead,
              path_seed);
  ws->epoch = epoch_;
  return v;
}

template <class Policy>
PathValue PathSimulator<Policy>::explore(
    Workspace& ws, std::size_t depth, ConfigId x,
    const model::Prediction* x_preds, double x_eic, double beta,
    const std::optional<ConfigId>& chi,
    const std::vector<std::uint32_t>& cands, unsigned steps_left,
    std::uint64_t path_seed) {
  PathValue v;
  v.reward = x_eic;
  v.cost = x_preds[0].mean;
  // §4.4 setup cost of deploying x after chi. A policy without one adds
  // no term at all (and subtracts an exact +0.0 from the child budget).
  double switch_cost = 0.0;
  if constexpr (Policy::kSetupCost) {
    switch_cost = policy_.setup_cost(chi, x);
    v.cost += switch_cost;
  }
  if (steps_left == 0) return v;

  Level& lvl = ws.levels[depth];
  const std::size_t n = policy_.speculate(lvl.branches, x_preds);

  // Child candidate set: the parent's candidates minus x, which the branch
  // below speculatively tests. Ascending order is preserved, which keeps
  // the argmax tie-breaking identical to a full ascending-id scan.
  lvl.cands.clear();
  for (std::uint32_t id : cands) {
    if (id != x) lvl.cands.push_back(id);
  }

  if (depth == 0 && branch_parts_ > 1 && n > 1) {
    // Branch-parallel fan-out (pooled-determinism contract, see the
    // header): the n branches are statically range-partitioned across the
    // pool, each partition running on its own workspace replica against
    // the read-only shared node inputs (lvl.branches / lvl.cands and the
    // root state). Each branch writes its contribution into its own slot;
    // the reduction below runs on this thread in ascending branch order,
    // reproducing the serial loop's accumulation order bit-for-bit.
    struct Ctx {
      PathSimulator* self;
      Workspace* ws;
      const Level* shared;
      ConfigId x;
      double switch_cost, beta;
      unsigned steps_left;
      std::uint64_t path_seed;
    } ctx{this, &ws, &lvl, x, switch_cost, beta, steps_left, path_seed};
    options_.branch_pool->parallel_ranges(
        *ws.section, n, branch_parts_,
        [](void* p, std::size_t, std::size_t b, std::size_t e) {
          auto& c = *static_cast<Ctx*>(p);
          Workspace* bw = c.self->acquire_branch_workspace();
          struct Release {
            PathSimulator* self;
            Workspace* ws;
            ~Release() { self->release_branch_workspace(ws); }
          } release{c.self, bw};
          c.self->sync_workspace(*bw);
          for (std::size_t i = b; i < e; ++i) {
            PathValue sub;
            c.ws->branch_taken[i] =
                c.self->explore_branch(*bw, 0, i, c.x, c.switch_cost, c.beta,
                                       *c.shared, c.steps_left, c.path_seed,
                                       sub)
                    ? 1
                    : 0;
            c.ws->branch_value[i] = sub;
          }
          bw->epoch = c.self->epoch_;
        },
        &ctx);
    for (std::size_t i = 0; i < n; ++i) {
      if (ws.branch_taken[i] == 0) continue;
      const double wi = lvl.branches.weight(i);
      v.cost += wi * ws.branch_value[i].cost;
      v.reward += options_.gamma * wi * ws.branch_value[i].reward;
    }
    return v;
  }

  for (std::size_t i = 0; i < n; ++i) {
    PathValue sub;
    if (explore_branch(ws, depth, i, x, switch_cost, beta, lvl, steps_left,
                       path_seed, sub)) {
      const double wi = lvl.branches.weight(i);
      v.cost += wi * sub.cost;
      v.reward += options_.gamma * wi * sub.reward;
    }
    // else: no viable continuation (lines 15-16) — the branch contributes
    // only the root step.
  }
  return v;
}

template <class Policy>
bool PathSimulator<Policy>::explore_branch(
    Workspace& ws, std::size_t depth, std::size_t i, ConfigId x,
    double switch_cost, double beta, const Level& shared,
    unsigned steps_left, std::uint64_t path_seed, PathValue& out) {
  Level& lvl = ws.levels[depth];
  const double ci = shared.branches.cost(i);
  const double* mi = shared.branches.metrics(i);

  // Apply the delta Σ → Σ' (Algorithm 2, lines 8-13): push the fantasy
  // sample on every objective instead of copying the state.
  ws.rows.push_back(x);
  ws.y[0].push_back(ci);
  for (std::size_t obj = 1; obj < ws.y.size(); ++obj) {
    ws.y[obj].push_back(mi[obj - 1]);
  }
  ws.feasible.push_back(policy_.fantasy_feasible(x, ci, mi) ? 1 : 0);
  const double child_beta = beta - ci - switch_cost;

  // Branch models: incremental mode copies the parent node's fitted
  // ensembles and appends the one fantasy sample (Σ' = Σ + {(x, ci)});
  // otherwise refit from scratch on the delta state. Same derive_seed
  // call structure either way (see the header's determinism contract).
  // Then one batched prediction per objective over the shrinking
  // candidate list. The bagging ensemble serves it from its flat
  // (structure-of-arrays) tree layout with ensemble-owned scratch, so the
  // call is allocation-free after the model's first batch and bitwise
  // equal to per-row predict() (the Regressor batched-prediction contract
  // the trajectory goldens pin).
  const std::uint64_t branch_seed = util::derive_seed(path_seed, i + 1);
  for (std::size_t obj = 0; obj < ws.y.size(); ++obj) {
    const std::uint64_t seed = Policy::fit_seed(branch_seed, obj);
    model::Regressor* node_model;
    if (incremental_ok_) {
      const model::Regressor& parent =
          depth == 0 ? *root_models_[obj]
                     : *ws.levels[depth - 1].inc_models[obj];
      lvl.inc_models[obj]->assign_fitted(parent);
      lvl.inc_models[obj]->append_and_update(fm_, x, ws.y[obj].back(), seed);
      node_model = lvl.inc_models[obj].get();
    } else {
      ws.models[obj]->fit(fm_, ws.rows, ws.y[obj], seed);
      node_model = ws.models[obj].get();
    }
    node_model->predict_subset(fm_, shared.cands, lvl.preds[obj]);
  }
  const std::vector<model::Prediction>& cost_preds = lvl.preds.front();
  const double y_star =
      state_incumbent(ws.y.front(), ws.feasible, cost_preds.size(),
                      [&](std::size_t k) { return cost_preds[k].stddev; });

  // Fused NextStep (Algorithm 2, lines 21-25): one pass computes the
  // budget-viability probability and EIc per candidate and keeps the
  // running argmax. Since EI <= max(y*-µ, 0) + σ·φ(0) and every
  // probability factor of EIc is <= 1, a candidate whose cheap upper
  // bound cannot *strictly* beat the running best is skipped without
  // evaluating the cdf/pdf pair — the argmax (first index attaining the
  // max, ties broken by scan order) is unchanged. The bound holds with
  // slack >= σ·φ(0) (σ has a positive floor in both models), orders of
  // magnitude above floating-point error in the compared expressions.
  double best = -std::numeric_limits<double>::infinity();
  std::size_t best_j = shared.cands.size();
  for (std::size_t j = 0; j < shared.cands.size(); ++j) {
    const model::Prediction& p = cost_preds[j];
    if (!budget_viable(child_beta, p)) continue;
    const double upper = std::max(y_star - p.mean, 0.0) + p.stddev * kPhi0;
    if (upper <= best) continue;
    const double acq = policy_.scan_score(
        y_star, static_cast<ConfigId>(shared.cands[j]), p, lvl.preds, j, best);
    if (acq > best) {
      best = acq;
      best_j = j;
    }
  }

  const bool taken = best_j != shared.cands.size();
  if (taken) {
    for (std::size_t obj = 0; obj < lvl.x_pred.size(); ++obj) {
      lvl.x_pred[obj] = lvl.preds[obj][best_j];
    }
    out = explore(ws, depth + 1, static_cast<ConfigId>(shared.cands[best_j]),
                  lvl.x_pred.data(), best, child_beta, x, shared.cands,
                  steps_left - 1, Policy::child_seed(path_seed, i));
  }

  // Revert the delta: Σ' → Σ.
  ws.rows.pop_back();
  for (auto& y : ws.y) y.pop_back();
  ws.feasible.pop_back();
  return taken;
}

template class PathSimulator<CostPolicy>;
template class PathSimulator<MultiConstraintPolicy>;

}  // namespace detail

// ---------------------------------------------------------------------------
// The two engines
// ---------------------------------------------------------------------------

void LookaheadEngine::begin_decision(const std::vector<Sample>& samples,
                                     double remaining_budget,
                                     std::uint64_t fit_seed) {
  root_rows_.clear();
  root_y_.front().clear();
  root_feasible_.clear();
  for (const auto& s : samples) {
    root_rows_.push_back(s.id);
    root_y_.front().push_back(s.cost);
    root_feasible_.push_back(s.feasible ? 1 : 0);
  }
  start_decision(remaining_budget, fit_seed);
}

void LookaheadEngine::screened_roots(unsigned width,
                                     std::vector<ConfigId>& out) const {
  out.assign(viable().begin(), viable().end());
  if (width == 0 || out.size() <= width) return;
  const std::vector<model::Prediction>& preds = root_predictions();
  std::partial_sort(
      out.begin(), out.begin() + width, out.end(),
      [&](ConfigId a, ConfigId b) {
        const double sa = eic_by_id_[a] / std::max(preds[a].mean, 1e-12);
        const double sb = eic_by_id_[b] / std::max(preds[b].mean, 1e-12);
        return sa > sb;
      });
  out.resize(width);
}

void MultiConstraintEngine::begin_decision(
    const std::vector<std::uint32_t>& rows, const std::vector<double>& y_cost,
    const std::vector<std::vector<double>>& y_metric,
    const std::vector<char>& feasible, double remaining_budget,
    std::uint64_t fit_seed) {
  if (y_metric.size() != constraint_count() || rows.size() != y_cost.size() ||
      rows.size() != feasible.size() || rows.empty()) {
    throw std::invalid_argument(
        "MultiConstraintEngine::begin_decision: malformed root state");
  }
  root_rows_.assign(rows.begin(), rows.end());
  root_y_.front().assign(y_cost.begin(), y_cost.end());
  for (std::size_t c = 0; c < y_metric.size(); ++c) {
    root_y_[c + 1].assign(y_metric[c].begin(), y_metric[c].end());
  }
  root_feasible_.assign(feasible.begin(), feasible.end());
  start_decision(remaining_budget, fit_seed);
}

}  // namespace lynceus::core
