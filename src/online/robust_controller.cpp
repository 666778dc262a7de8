#include "online/robust_controller.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/vec.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/deadline.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/stopwatch.hpp"

namespace mdo::online {

namespace {

bool demand_clean(const model::SparseSlotDemand& demand) {
  for (const model::SparseSbsDemand& sbs : demand) {
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      const auto* const end = sbs.row_end(m);
      for (const auto* it = sbs.row_begin(m); it != end; ++it) {
        if (!std::isfinite(it->rate) || it->rate < 0.0) return false;
      }
    }
  }
  return true;
}

/// Copy of the observed demand without its NaN/Inf/negative rates — the
/// least-assuming repair: a rate we cannot trust contributes no traffic.
model::SparseSlotDemand sanitize_demand(const model::SparseSlotDemand& demand) {
  model::SparseSlotDemand out;
  out.reserve(demand.size());
  for (const model::SparseSbsDemand& sbs : demand) {
    model::SparseSbsDemand clean(sbs.num_classes(), sbs.num_contents());
    for (std::size_t m = 0; m < sbs.num_classes(); ++m) {
      const auto* const end = sbs.row_end(m);
      for (const auto* it = sbs.row_begin(m); it != end; ++it) {
        if (std::isfinite(it->rate) && it->rate >= 0.0) {
          clean.append(m, it->content, it->rate);
        }
      }
    }
    clean.finalize();
    out.push_back(std::move(clean));
  }
  return out;
}

bool decision_finite(const model::SlotDecision& decision) {
  for (std::size_t n = 0; n < decision.load.num_sbs(); ++n) {
    for (const double y : decision.load.sbs_data(n)) {
      if (!std::isfinite(y)) return false;
    }
  }
  return true;
}

/// Per-SBS content scores (total observed request volume) for eviction /
/// top-C ranking: one column-sum pass instead of K content_total calls.
linalg::Vec content_scores(const model::SparseSbsDemand& demand) {
  linalg::Vec scores;
  demand.content_totals_into(scores);
  return scores;
}

}  // namespace

RobustController::RobustController(Controller& inner,
                                   RobustControllerOptions options)
    : inner_(&inner), options_(options) {
  MDO_REQUIRE(options_.max_decide_seconds >= 0.0,
              "decide budget must be >= 0");
}

std::string RobustController::name() const {
  return "Robust(" + inner_->name() + ")";
}

void RobustController::reset(const model::ProblemInstance& instance) {
  inner_->reset(instance);
  instance_ = &instance;
  last_executed_ = {};
  have_last_ = false;
  last_substituted_ = false;
  events_.clear();
  slot_kinds_.clear();
  slot_details_.clear();
  level_counts_ = {};
}

void RobustController::observe(std::size_t slot,
                               const model::SlotDecision& executed) {
  last_executed_ = executed;
  have_last_ = true;
  if (last_substituted_) {
    last_substituted_ = false;
    inner_->resync(slot, executed);
  } else {
    inner_->observe(slot, executed);
  }
}

void RobustController::resync(std::size_t slot,
                              const model::SlotDecision& executed) {
  last_executed_ = executed;
  have_last_ = true;
  last_substituted_ = false;
  inner_->resync(slot, executed);
}

model::SlotDecision RobustController::decide(const DecisionContext& ctx) {
  MDO_REQUIRE(instance_ != nullptr, "Robust: reset() must be called first");
  try {
    return decide_guarded(ctx);
  } catch (const std::exception& e) {
    // Last-ditch guard: even the fallback chain failed (allocation, a broken
    // instance...). An empty cache with y = 0 is feasible for any config.
    MDO_WARN("RobustController: fallback chain failed at slot "
             << ctx.slot << ": " << e.what());
    slot_kinds_.push_back(DegradationKind::kSolverFailure);
    slot_details_.push_back(e.what());
    model::SlotDecision safe;
    safe.cache = model::CacheState(instance_->config);
    safe.load = model::LoadAllocation(instance_->config);
    return finish(ctx.slot, FallbackLevel::kBsOnly, std::move(safe),
                  /*substituted=*/true);
  }
}

model::SlotDecision RobustController::decide_guarded(
    const DecisionContext& ctx) {
  const model::NetworkConfig& effective =
      ctx.effective_config != nullptr ? *ctx.effective_config
                                      : instance_->config;
  MDO_REQUIRE(ctx.has_demand(), "Robust: demand must be set");

  // ---- Sanitize the observed world.
  model::SparseSlotDemand converted;
  const model::SparseSlotDemand* observed =
      &model::sparse_slot(ctx.demand(), converted);
  MDO_REQUIRE(observed->size() == effective.num_sbs(),
              "Robust: demand shape mismatch");
  const bool demand_ok = demand_clean(*observed);
  model::SparseSlotDemand sanitized;
  if (!demand_ok) {
    slot_kinds_.push_back(DegradationKind::kCorruptDemand);
    slot_details_.push_back("observed demand held NaN/Inf/negative rates");
    sanitized = sanitize_demand(*observed);
    observed = &sanitized;
  }

  // Projects `decision` onto the effective capacities: evicts the lowest-
  // score contents of over-capacity SBSs (outage => capacity 0 => evict
  // all), zeroes y on evicted contents, and clamps y into [0, 1]. Returns
  // whether the cache was changed (the executed trajectory then differs
  // from the wrapped controller's own, so observe() must resync).
  auto project_capacity = [&](model::SlotDecision& decision,
                              FallbackLevel level) {
    bool evicted = false;
    for (std::size_t n = 0; n < effective.num_sbs(); ++n) {
      const std::size_t capacity = effective.sbs[n].cache_capacity;
      if (decision.cache.count(n) > capacity) {
        evicted = true;
        const linalg::Vec scores = content_scores((*observed)[n]);
        std::vector<std::size_t> cached = decision.cache.cached_contents(n);
        std::stable_sort(cached.begin(), cached.end(),
                         [&scores](std::size_t a, std::size_t b) {
                           return scores[a] > scores[b];
                         });
        for (std::size_t i = capacity; i < cached.size(); ++i) {
          decision.cache.set(n, cached[i], false);
        }
      }
      const std::size_t classes = effective.sbs[n].num_classes();
      for (std::size_t m = 0; m < classes; ++m) {
        for (std::size_t k = 0; k < effective.num_contents; ++k) {
          double& y = decision.load.at(n, m, k);
          y = std::isfinite(y) ? std::clamp(y, 0.0, 1.0) : 0.0;
          if (!decision.cache.cached(n, k)) y = 0.0;
        }
      }
      // Best-effort bandwidth projection against the observed demand; the
      // simulator still repairs against the truth afterwards.
      const double load = model::sbs_load(decision.load, n, (*observed)[n]);
      if (load > effective.sbs[n].bandwidth && load > 0.0) {
        const double scale = effective.sbs[n].bandwidth / load;
        for (double& y : decision.load.sbs_data(n)) y *= scale;
      }
    }
    if (evicted) {
      DegradationEvent event;
      event.slot = ctx.slot;
      event.level = level;
      event.kind = DegradationKind::kOutageEviction;
      event.detail = "cache projected onto degraded capacities";
      events_.push_back(event);
    }
    return evicted;
  };

  // ---- Level 0: the wrapped controller's own solve.
  if (demand_ok) {
    try {
      // Per-slot budget. The caller's token wins; otherwise build one from
      // the options (logical checks preferred — they are deterministic).
      runtime::DeadlineToken local_token;
      runtime::DeadlineToken* token = ctx.deadline;
      if (token == nullptr) {
        if (options_.max_decide_checks > 0) {
          local_token =
              runtime::DeadlineToken::after_checks(options_.max_decide_checks);
          token = &local_token;
        } else if (options_.max_decide_seconds > 0.0) {
          local_token =
              runtime::DeadlineToken::after_seconds(options_.max_decide_seconds);
          token = &local_token;
        }
      }
      DecisionContext inner_ctx = ctx;
      inner_ctx.deadline = token;

      const Stopwatch watch;
      model::SlotDecision decision = inner_->decide(inner_ctx);
      const double elapsed = watch.elapsed_seconds();
      // Anytime-accept: a deadline-aware inner polled the token until it
      // expired and returned its best feasible incumbent — serve that
      // (recording the expiry) instead of discarding a usable decision.
      const bool anytime = token != nullptr && token->expired();
      if (anytime) {
        slot_kinds_.push_back(DegradationKind::kDeadlineExceeded);
        slot_details_.push_back("budget expired; serving anytime incumbent");
      }
      if (!anytime && options_.max_decide_seconds > 0.0 &&
          elapsed > options_.max_decide_seconds) {
        // The inner controller ignored the token (legacy / non-solver
        // controllers): the late result is discarded, level 1 serves.
        slot_kinds_.push_back(DegradationKind::kDeadlineExceeded);
        slot_details_.push_back("decide() took " + std::to_string(elapsed) +
                                "s");
      } else if (!decision_finite(decision)) {
        slot_kinds_.push_back(DegradationKind::kNonFiniteDecision);
        slot_details_.push_back("wrapped controller returned NaN/Inf load");
      } else {
        // Project only when the slot is actually degraded (or the inner
        // controller overfilled a cache): on a clean slot the wrapper must
        // return the inner decision bit for bit — clamping and bandwidth
        // scaling are the simulator repair's job.
        bool needs_projection = ctx.effective_config != nullptr;
        for (std::size_t n = 0; !needs_projection && n < effective.num_sbs();
             ++n) {
          needs_projection =
              decision.cache.count(n) > effective.sbs[n].cache_capacity;
        }
        bool cache_changed = false;
        if (needs_projection) {
          cache_changed = project_capacity(decision, FallbackLevel::kFull);
        }
        return finish(ctx.slot, FallbackLevel::kFull, std::move(decision),
                      /*substituted=*/cache_changed);
      }
    } catch (const std::exception& e) {
      slot_kinds_.push_back(ctx.predictor == nullptr
                                ? DegradationKind::kPredictorMissing
                                : DegradationKind::kSolverFailure);
      slot_details_.push_back(e.what());
    }
  }

  // ---- Level 1: reuse the last executed decision, re-projected feasible.
  if (have_last_) {
    model::SlotDecision decision = last_executed_;
    project_capacity(decision, FallbackLevel::kWarmReuse);
    return finish(ctx.slot, FallbackLevel::kWarmReuse, std::move(decision),
                  /*substituted=*/true);
  }

  // ---- Level 2: LRFU-style top-C caching on sanitized demand, y = 0.
  model::SlotDecision decision;
  decision.cache = model::CacheState(instance_->config);
  decision.load = model::LoadAllocation(instance_->config);
  for (std::size_t n = 0; n < effective.num_sbs(); ++n) {
    const linalg::Vec scores = content_scores((*observed)[n]);
    std::vector<std::size_t> order(effective.num_contents);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&scores](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    const std::size_t capacity =
        std::min<std::size_t>(effective.sbs[n].cache_capacity, order.size());
    for (std::size_t i = 0; i < capacity; ++i) {
      decision.cache.set(n, order[i], true);
    }
  }
  return finish(ctx.slot, FallbackLevel::kBsOnly, std::move(decision),
                /*substituted=*/true);
}

model::SlotDecision RobustController::finish(std::size_t slot,
                                             FallbackLevel level,
                                             model::SlotDecision decision,
                                             bool substituted) {
  ++level_counts_[static_cast<std::size_t>(level)];
  last_substituted_ = substituted;
  for (std::size_t i = 0; i < slot_kinds_.size(); ++i) {
    DegradationEvent event;
    event.slot = slot;
    event.level = level;
    event.kind = slot_kinds_[i];
    event.detail = std::move(slot_details_[i]);
    events_.push_back(std::move(event));
  }
  slot_kinds_.clear();
  slot_details_.clear();
  // decide() callers that never invoke observe() (direct drivers) still get
  // warm reuse from the returned decision; observe() overwrites it with the
  // executed one.
  last_executed_ = decision;
  have_last_ = true;
  return decision;
}

void RobustController::save_state(util::BinaryWriter& w) const {
  MDO_REQUIRE(instance_ != nullptr, "Robust: reset() must be called first");
  w.boolean(have_last_);
  if (have_last_) runtime::write_decision(w, last_executed_);
  w.boolean(last_substituted_);
  for (const std::size_t count : level_counts_) w.size(count);
  w.size(events_.size());
  for (const DegradationEvent& event : events_) {
    w.size(event.slot);
    w.u8(static_cast<std::uint8_t>(event.level));
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.str(event.detail);
  }
  inner_->save_state(w);
}

void RobustController::restore_state(util::BinaryReader& r) {
  MDO_REQUIRE(instance_ != nullptr, "Robust: reset() must be called first");
  have_last_ = r.boolean();
  last_executed_ = have_last_ ? runtime::read_decision(r, instance_->config)
                              : model::SlotDecision{};
  last_substituted_ = r.boolean();
  for (std::size_t& count : level_counts_) count = r.size();
  events_.clear();
  const std::size_t num_events = r.count();
  events_.reserve(num_events);
  for (std::size_t i = 0; i < num_events; ++i) {
    DegradationEvent event;
    event.slot = r.size();
    const std::uint8_t level = r.u8();
    MDO_REQUIRE(level <= 2, "Robust snapshot: bad fallback level");
    event.level = static_cast<FallbackLevel>(level);
    const std::uint8_t kind = r.u8();
    MDO_REQUIRE(kind <=
                    static_cast<std::uint8_t>(DegradationKind::kOutageEviction),
                "Robust snapshot: bad degradation kind");
    event.kind = static_cast<DegradationKind>(kind);
    event.detail = r.str();
    events_.push_back(std::move(event));
  }
  slot_kinds_.clear();
  slot_details_.clear();
  inner_->restore_state(r);
}

}  // namespace mdo::online
