// Property check shared by the MILP and formulation tests: propagation that
// starts from the units reading the bounds just moved ends at the fixpoint a
// pass over every unit ends at.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milp/compiled.hpp"
#include "milp/model.hpp"
#include "milp/propagation.hpp"
#include "support/rng.hpp"

namespace sparcs::testing {

/// Counts of one check_incremental_fixpoint() run.
struct FixpointCounts {
  int checked = 0;    ///< successful incremental calls followed by a full pass
  int conflicts = 0;  ///< incremental calls that ended in a conflict
};

/// Runs `sequences` random fixing sequences on `model`. Each starts from the
/// full-pass fixpoint of the model's bounds, then repeatedly fixes a random
/// unfixed variable of `candidates` (every integral variable when empty) to
/// a random integral value of its domain and calls
/// propagate(d, {v}). After each call that returns true, a following
/// propagate(d, {}) must tighten no bound and find no conflict; a call that
/// returns false ends the sequence.
inline FixpointCounts check_incremental_fixpoint(
    const milp::Model& model, Rng& rng, int sequences,
    std::vector<milp::VarId> candidates = {}) {
  constexpr double kTol = 1e-6;
  // A budget this large is never reached, so every call ends at a fixpoint
  // or a conflict.
  constexpr int kRounds = 100000;
  const milp::CompiledModel compiled(model);
  milp::Propagator prop(compiled, kTol, kRounds);
  if (candidates.empty()) {
    for (milp::VarId v = 0; v < compiled.num_vars(); ++v) {
      if (compiled.is_integral(v)) candidates.push_back(v);
    }
  }
  FixpointCounts counts;
  for (int s = 0; s < sequences; ++s) {
    milp::Domains d(compiled);
    milp::PropagationStats root;
    if (!prop.propagate(d, {}, root)) return counts;  // refuted at the root
    for (;;) {
      std::vector<milp::VarId> open;
      for (const milp::VarId v : candidates) {
        if (!d.is_fixed(v) && std::isfinite(d.lb(v)) &&
            std::isfinite(d.ub(v))) {
          open.push_back(v);
        }
      }
      if (open.empty()) break;
      const milp::VarId v = open[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1))];
      const double value = static_cast<double>(
          rng.uniform_int(static_cast<std::int64_t>(d.lb(v)),
                          static_cast<std::int64_t>(d.ub(v))));
      d.set_lb(v, value);
      d.set_ub(v, value);
      milp::PropagationStats incremental;
      if (!prop.propagate(d, {v}, incremental)) {
        ++counts.conflicts;
        break;
      }
      milp::PropagationStats full;
      EXPECT_TRUE(prop.propagate(d, {}, full))
          << "a full pass refutes the incremental fixpoint after fixing "
          << model.var(v).name << " = " << value;
      EXPECT_EQ(full.bounds_tightened, 0)
          << "a full pass tightens the incremental fixpoint after fixing "
          << model.var(v).name << " = " << value;
      if (full.conflicts != 0 || full.bounds_tightened != 0) return counts;
      ++counts.checked;
    }
  }
  return counts;
}

}  // namespace sparcs::testing
