#include "jdl/compiled_match.hpp"

#include <utility>
#include <variant>

#include "jdl/eval.hpp"
#include "util/strings.hpp"

namespace cg::jdl {

int SlotLayout::add(std::string_view name) {
  std::string key = to_lower(name);
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const int idx = static_cast<int>(names_.size());
  names_.emplace_back(name);
  index_.emplace(std::move(key), idx);
  return idx;
}

int SlotLayout::index_of(std::string_view name) const {
  const auto it = index_.find(to_lower(name));
  return it == index_.end() ? -1 : it->second;
}

namespace {

using Node = CompiledMatch::Node;

Node make_const(Value v) {
  Node n;
  n.kind = Node::Kind::kConst;
  n.constant = std::move(v);
  return n;
}

/// Folds a freshly built node. A subtree without slot reads is evaluated
/// right now (it can never change per site); the partial folds below are
/// exact under the three-valued logic of value.cpp: a constant-false
/// operand forces && to false and a constant-true operand forces || to
/// true whatever the other side evaluates to, and a constant condition
/// decides a ternary outright.
Node fold(Node n) {
  if (n.kind != Node::Kind::kConst && !n.site_dependent) {
    return make_const(CompiledMatch::eval(n, SlotEvalContext{}));
  }
  if (n.kind == Node::Kind::kBinary) {
    const auto const_truth = [](const Node& c) -> int {
      if (c.kind != Node::Kind::kConst || !c.constant.is_bool()) return -1;
      return c.constant.as_bool() ? 1 : 0;
    };
    if (n.bop == BinaryOp::kAnd) {
      for (const Node& c : n.children) {
        if (const_truth(c) == 0) return make_const(Value::boolean(false));
      }
    } else if (n.bop == BinaryOp::kOr) {
      for (const Node& c : n.children) {
        if (const_truth(c) == 1) return make_const(Value::boolean(true));
      }
    }
  }
  if (n.kind == Node::Kind::kTernary &&
      n.children[0].kind == Node::Kind::kConst) {
    const Value& cond = n.children[0].constant;
    if (!cond.is_bool()) return make_const(Value::undefined());
    return std::move(n.children[cond.as_bool() ? 1u : 2u]);
  }
  return n;
}

/// Compiles a job-side expression. `depth` mirrors the interpreter's
/// recursion counter exactly — inlining an attribute reference costs one
/// level, so expressions nested past kMaxEvalDepth compile to the same
/// Undefined the interpreter would produce (this also bounds compilation of
/// cyclic self-references).
struct Compiler {
  const ClassAd& job;
  const SlotLayout& layout;

  [[nodiscard]] Node compile(const Expr& e, int depth) const {
    if (depth > kMaxEvalDepth) return make_const(Value::undefined());
    return std::visit([&](const auto& node) { return (*this)(node, depth); },
                      e.node);
  }

  Node operator()(const Expr::Literal& l, int) const {
    return make_const(l.value);
  }

  Node operator()(const Expr::AttrRef& r, int depth) const {
    if (r.scope == Scope::kOther) {
      // Machine attributes are literals published by the information
      // system: dereferencing one reads its slot (at depth+1, where the
      // interpreter would evaluate the literal), and a name outside the
      // layout is Undefined just like a missing attribute.
      if (depth + 1 > kMaxEvalDepth) return make_const(Value::undefined());
      const int slot = layout.index_of(r.name);
      if (slot < 0) return make_const(Value::undefined());
      Node n;
      n.kind = Node::Kind::kSlot;
      n.slot = slot;
      n.site_dependent = true;
      return n;
    }
    // Self scope: the job ad is fixed, so inline the referenced expression.
    const ExprPtr e = job.lookup(r.name);
    if (!e) return make_const(Value::undefined());
    return compile(*e, depth + 1);
  }

  Node operator()(const Expr::Unary& u, int depth) const {
    Node n;
    n.kind = Node::Kind::kUnary;
    n.uop = u.op;
    n.children.push_back(compile(*u.operand, depth + 1));
    n.site_dependent = n.children[0].site_dependent;
    return fold(std::move(n));
  }

  Node operator()(const Expr::Binary& b, int depth) const {
    Node n;
    n.kind = Node::Kind::kBinary;
    n.bop = b.op;
    n.children.push_back(compile(*b.lhs, depth + 1));
    n.children.push_back(compile(*b.rhs, depth + 1));
    n.site_dependent =
        n.children[0].site_dependent || n.children[1].site_dependent;
    return fold(std::move(n));
  }

  Node operator()(const Expr::Ternary& t, int depth) const {
    Node n;
    n.kind = Node::Kind::kTernary;
    n.children.push_back(compile(*t.cond, depth + 1));
    n.children.push_back(compile(*t.if_true, depth + 1));
    n.children.push_back(compile(*t.if_false, depth + 1));
    for (const Node& c : n.children) n.site_dependent |= c.site_dependent;
    return fold(std::move(n));
  }

  Node operator()(const Expr::ListExpr& l, int depth) const {
    Node n;
    n.kind = Node::Kind::kList;
    n.children.reserve(l.items.size());
    for (const auto& e : l.items) {
      n.children.push_back(compile(*e, depth + 1));
      n.site_dependent |= n.children.back().site_dependent;
    }
    return fold(std::move(n));
  }

  Node operator()(const Expr::Call& c, int depth) const {
    Node n;
    n.kind = Node::Kind::kCall;
    n.function = c.function;
    n.children.reserve(c.args.size());
    for (const auto& a : c.args) {
      n.children.push_back(compile(*a, depth + 1));
      n.site_dependent |= n.children.back().site_dependent;
    }
    return fold(std::move(n));
  }
};

/// Flattens the top-level && spine of compiled Requirements. Sound for the
/// match criterion because is_true(a && b) == is_true(a) && is_true(b):
/// constant-true conjuncts are vacuous, any constant non-true conjunct
/// (false, Undefined, non-boolean) makes the job unmatchable everywhere.
void flatten_and(Node n, std::vector<Node>& conjuncts, bool& never_matches) {
  if (n.kind == Node::Kind::kBinary && n.bop == BinaryOp::kAnd) {
    flatten_and(std::move(n.children[0]), conjuncts, never_matches);
    flatten_and(std::move(n.children[1]), conjuncts, never_matches);
    return;
  }
  if (n.kind == Node::Kind::kConst) {
    if (!n.constant.is_true()) never_matches = true;
    return;
  }
  conjuncts.push_back(std::move(n));
}

}  // namespace

CompiledMatch CompiledMatch::compile(const ClassAd& job_ad,
                                     const SlotLayout& layout) {
  CompiledMatch out;
  const Compiler compiler{job_ad, layout};
  if (const ExprPtr req = job_ad.lookup("requirements")) {
    flatten_and(compiler.compile(*req, 0), out.conjuncts_, out.never_matches_);
  }
  if (const ExprPtr rank_expr = job_ad.lookup("rank")) {
    out.rank_ = std::make_unique<Node>(compiler.compile(*rank_expr, 0));
  }
  return out;
}

bool CompiledMatch::matches(const SlotEvalContext& ctx) const {
  if (never_matches_) return false;
  for (const Node& conjunct : conjuncts_) {
    if (!eval(conjunct, ctx).is_true()) return false;
  }
  return true;
}

double CompiledMatch::rank(const SlotEvalContext& ctx) const {
  if (!rank_) return 0.0;
  const Value v = eval(*rank_, ctx);
  if (v.is_number()) return v.as_number();
  return 0.0;  // non-numeric rank: neutral
}

Value CompiledMatch::eval(const Node& n, const SlotEvalContext& ctx) {
  switch (n.kind) {
    case Node::Kind::kConst:
      return n.constant;
    case Node::Kind::kSlot: {
      if (n.slot == ctx.override_slot) return ctx.override_value;
      if (ctx.slots == nullptr || n.slot < 0 ||
          static_cast<std::size_t>(n.slot) >= ctx.slots->size()) {
        return Value::undefined();
      }
      return (*ctx.slots)[static_cast<std::size_t>(n.slot)];
    }
    case Node::Kind::kUnary: {
      const Value v = eval(n.children[0], ctx);
      return n.uop == UnaryOp::kNot ? logical_not(v) : arith_neg(v);
    }
    case Node::Kind::kBinary: {
      // Same short-circuiting as the interpreter (three-valued logic).
      if (n.bop == BinaryOp::kAnd) {
        const Value lhs = eval(n.children[0], ctx);
        if (lhs.is_bool() && !lhs.as_bool()) return Value::boolean(false);
        return logical_and(lhs, eval(n.children[1], ctx));
      }
      if (n.bop == BinaryOp::kOr) {
        const Value lhs = eval(n.children[0], ctx);
        if (lhs.is_true()) return Value::boolean(true);
        return logical_or(lhs, eval(n.children[1], ctx));
      }
      const Value lhs = eval(n.children[0], ctx);
      const Value rhs = eval(n.children[1], ctx);
      switch (n.bop) {
        case BinaryOp::kEq: return cmp_eq(lhs, rhs);
        case BinaryOp::kNe: return cmp_ne(lhs, rhs);
        case BinaryOp::kLt: return cmp_lt(lhs, rhs);
        case BinaryOp::kLe: return cmp_le(lhs, rhs);
        case BinaryOp::kGt: return cmp_gt(lhs, rhs);
        case BinaryOp::kGe: return cmp_ge(lhs, rhs);
        case BinaryOp::kAdd: return arith_add(lhs, rhs);
        case BinaryOp::kSub: return arith_sub(lhs, rhs);
        case BinaryOp::kMul: return arith_mul(lhs, rhs);
        case BinaryOp::kDiv: return arith_div(lhs, rhs);
        case BinaryOp::kMod: return arith_mod(lhs, rhs);
        case BinaryOp::kAnd:
        case BinaryOp::kOr: break;  // handled above
      }
      return Value::undefined();
    }
    case Node::Kind::kTernary: {
      const Value cond = eval(n.children[0], ctx);
      if (!cond.is_bool()) return Value::undefined();
      return eval(n.children[cond.as_bool() ? 1u : 2u], ctx);
    }
    case Node::Kind::kList: {
      ValueList items;
      items.reserve(n.children.size());
      for (const Node& c : n.children) items.push_back(eval(c, ctx));
      return Value::list(std::move(items));
    }
    case Node::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(n.children.size());
      for (const Node& c : n.children) args.push_back(eval(c, ctx));
      return call_function(n.function, args);
    }
  }
  return Value::undefined();
}

}  // namespace cg::jdl
