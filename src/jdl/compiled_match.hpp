// Compiled form of a job's Requirements/Rank expressions, the one form the
// matchmaker evaluates. Interpreting the raw AST per job×site pays for a
// ClassAd lookup (string lowercasing + map walk) at every attribute
// reference; compilation does that work once per job:
//
//  * self-scope attribute references are inlined (the job ad is fixed for
//    the lifetime of the compiled expression);
//  * other-scope references are resolved to dense *slot indices* into the
//    machine attribute layout published by the information system, so a
//    per-site evaluation is an array read, not a map lookup;
//  * constant subtrees are folded at compile time, and the top-level
//    Requirements conjunction is split so site-independent conjuncts are
//    decided once per job, not once per site (sound because
//    `is_true(a && b) == is_true(a) && is_true(b)` under the three-valued
//    logic of value.cpp).
//
// Exactness contract: for machine ads whose attributes are all literals in
// the given SlotLayout (what SiteRecord::to_classad produces), evaluating
// the compiled form equals evaluating the original AST with jdl::evaluate —
// including the depth-64 recursion cutoff, which is replicated statically.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "jdl/ast.hpp"
#include "jdl/classad.hpp"

namespace cg::jdl {

/// Dense attribute layout of a machine ad: name -> slot index. Built once
/// per schema (see infosys::machine_slot_layout()) and shared.
class SlotLayout {
public:
  /// Registers a name (case-insensitive) and returns its slot index;
  /// re-registering returns the existing index.
  int add(std::string_view name);
  /// Slot index for a name, or -1 when the layout has no such attribute.
  [[nodiscard]] int index_of(std::string_view name) const;
  [[nodiscard]] std::size_t size() const { return names_.size(); }

private:
  std::vector<std::string> names_;               ///< original spelling
  std::map<std::string, int> index_;             ///< lowercased -> slot
};

/// Per-site attribute values in slot order (parallel to a SlotLayout).
using SlotValues = std::vector<Value>;

/// Evaluation context for a compiled expression. `override_slot` lets the
/// matchmaker substitute one attribute without copying the vector (FreeCPUs
/// is replaced by the lease-adjusted count on every evaluation).
struct SlotEvalContext {
  const SlotValues* slots = nullptr;
  int override_slot = -1;
  Value override_value;
};

/// A job's Requirements and Rank, compiled against a machine SlotLayout.
class CompiledMatch {
public:
  /// Compiles `job_ad`'s requirements/rank. Never fails: malformed or
  /// unsatisfiable expressions become never_matches() / neutral rank,
  /// mirroring what interpretation would produce.
  [[nodiscard]] static CompiledMatch compile(const ClassAd& job_ad,
                                             const SlotLayout& layout);

  /// True when the requirements are site-independently non-true: no machine
  /// can match, so the per-site loop can be skipped entirely.
  [[nodiscard]] bool never_matches() const { return never_matches_; }

  /// Site-dependent requirements test (all residual conjuncts true).
  [[nodiscard]] bool matches(const SlotEvalContext& ctx) const;

  /// True when the job declares a Rank expression; otherwise the caller
  /// applies the default rank (free CPUs).
  [[nodiscard]] bool has_rank() const { return rank_ != nullptr; }

  /// The compiled Rank value; non-numeric ranks are neutral (0.0), so a
  /// Rank that evaluates to a string or Undefined leaves every site tied.
  [[nodiscard]] double rank(const SlotEvalContext& ctx) const;

  /// Site-dependent conjuncts left after constant folding (introspection).
  [[nodiscard]] std::size_t residual_conjunct_count() const {
    return conjuncts_.size();
  }

  // Compiled expression node. Public for the evaluator/tests; treat as
  // opaque elsewhere.
  struct Node {
    enum class Kind { kConst, kSlot, kUnary, kBinary, kTernary, kList, kCall };
    Kind kind = Kind::kConst;
    Value constant;                  ///< kConst
    int slot = -1;                   ///< kSlot
    UnaryOp uop = UnaryOp::kNot;     ///< kUnary
    BinaryOp bop = BinaryOp::kAnd;   ///< kBinary
    std::string function;            ///< kCall (lowercase)
    std::vector<Node> children;
    bool site_dependent = false;     ///< any kSlot in this subtree
  };

  /// Evaluates a compiled node (exposed for tests).
  [[nodiscard]] static Value eval(const Node& node, const SlotEvalContext& ctx);

private:
  std::vector<Node> conjuncts_;      ///< residual Requirements conjuncts
  std::unique_ptr<Node> rank_;
  bool never_matches_ = false;
};

}  // namespace cg::jdl
