// Certificate data carried alongside solver verdicts so an independent
// checker (milp/certify) can re-establish them in exact rational arithmetic.
//
// Two kinds of claims flow out of the solver:
//  - "this assignment is feasible": the certificate is the assignment itself,
//    re-evaluated exactly against the Model (no tolerances);
//  - "this model is infeasible": the certificate is a tree-shaped proof that
//    mirrors the branch & bound tree. Interior nodes record the branching
//    decision (whose boxes must cover the variable's integral domain); leaves
//    record why their box holds no solution — a propagation conflict (with
//    the bound derivations that led to it, replayed soundly by the checker),
//    an LP infeasibility (a Farkas dual ray whose product signs are checked
//    exactly), or a branch box that emptied a domain outright.
//
// The certificates themselves are plain doubles — they are hints, not
// trusted data. Only the exact re-check in milp/certify decides; a corrupt
// or unluckily-rounded certificate makes the verdict *uncertified*, never
// unsound.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "milp/types.hpp"

namespace sparcs::milp {

// CertifyMode, CertifyStatus and LpCertificate live in milp/types.hpp (they
// are embedded in SolverParams/LpResult); this header adds the proof shapes.

/// One bound tightening performed by propagation: constraint `constraint`
/// tightened `var`'s lower (is_lb) or upper bound. The derived value is NOT
/// recorded — the checker recomputes the implied bound exactly from its own
/// current box, which keeps the replay sound even when the floating-point
/// propagation over-tightened.
struct Derivation {
  ConstraintId constraint = -1;
  VarId var = -1;
  bool is_lb = false;
};

/// Derivation trace of one propagate() call, including how it ended.
struct DerivationLog {
  std::vector<Derivation> derivations;
  /// Row whose activity range excluded every point of the box (-1: none).
  ConstraintId conflict_row = -1;
  /// Variable whose domain was emptied by a tightening (-1: none).
  VarId conflict_var = -1;

  void clear() {
    derivations.clear();
    conflict_row = -1;
    conflict_var = -1;
  }
};

/// One node of a tree-shaped infeasibility proof. `rank` is the node's
/// position in the depth-first order of the branch & bound tree (the branch
/// indices from the root), which is also how parallel workers' fragments are
/// stitched back into one tree.
struct ProofNode {
  enum class Kind : std::uint8_t {
    kBranched,  ///< interior: branched `var` into `branches` boxes
    kConflict,  ///< leaf: propagation conflict (see conflict_row/conflict_var)
    kEmptyBox,  ///< leaf: the branch box emptied `var`'s domain on arrival
    kFarkas,    ///< leaf: LP infeasible; ray `y` over model rows `rows`
    kUnproven,  ///< leaf refuted by a means that yields no certificate
  };

  std::vector<std::int32_t> rank;
  Kind kind = Kind::kUnproven;
  /// Bound derivations of the propagate() call that entered this node;
  /// replayed by the checker before the kind-specific verification.
  std::vector<Derivation> derivations;
  VarId var = -1;  ///< kBranched: branch variable; kEmptyBox: emptied var
  std::vector<std::pair<double, double>> branches;  ///< kBranched boxes
  ConstraintId conflict_row = -1;  ///< kConflict: violated row (-1: none)
  VarId conflict_var = -1;         ///< kConflict: emptied var (-1: none)
  std::vector<ConstraintId> rows;  ///< kFarkas: model row of each multiplier
  std::vector<double> y;           ///< kFarkas: dual ray
};

/// Tree-shaped infeasibility proof for a whole MILP, assembled by branch &
/// bound from the fragments its workers recorded, stitched by rank.
struct InfeasibilityProof {
  std::vector<ProofNode> nodes;
  /// Recording hit its size cap; the proof is incomplete and uncheckable.
  bool overflowed = false;
};

}  // namespace sparcs::milp
