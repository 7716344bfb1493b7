#include "jdl/ast.hpp"

namespace cg::jdl {

ExprPtr make_literal(Value v) {
  return std::make_shared<Expr>(Expr{Expr::Literal{std::move(v)}});
}

ExprPtr make_attr_ref(Scope scope, bool explicit_scope, std::string name) {
  return std::make_shared<Expr>(
      Expr{Expr::AttrRef{scope, explicit_scope, std::move(name)}});
}

ExprPtr make_unary(UnaryOp op, ExprPtr operand) {
  return std::make_shared<Expr>(Expr{Expr::Unary{op, std::move(operand)}});
}

ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  return std::make_shared<Expr>(
      Expr{Expr::Binary{op, std::move(lhs), std::move(rhs)}});
}

ExprPtr make_ternary(ExprPtr cond, ExprPtr t, ExprPtr f) {
  return std::make_shared<Expr>(
      Expr{Expr::Ternary{std::move(cond), std::move(t), std::move(f)}});
}

ExprPtr make_list(std::vector<ExprPtr> items) {
  return std::make_shared<Expr>(Expr{Expr::ListExpr{std::move(items)}});
}

ExprPtr make_call(std::string function, std::vector<ExprPtr> args) {
  return std::make_shared<Expr>(
      Expr{Expr::Call{std::move(function), std::move(args)}});
}

namespace {

const char* op_text(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd: return "&&";
    case BinaryOp::kOr: return "||";
    case BinaryOp::kEq: return "==";
    case BinaryOp::kNe: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kMod: return "%";
  }
  return "?";
}

}  // namespace

std::string to_source(const Expr& expr) {
  struct Visitor {
    std::string operator()(const Expr::Literal& l) const { return l.value.to_string(); }
    std::string operator()(const Expr::AttrRef& r) const {
      if (r.explicit_scope) {
        return (r.scope == Scope::kOther ? "other." : "self.") + r.name;
      }
      return r.name;
    }
    std::string operator()(const Expr::Unary& u) const {
      return std::string{u.op == UnaryOp::kNot ? "!" : "-"} + "(" +
             to_source(*u.operand) + ")";
    }
    std::string operator()(const Expr::Binary& b) const {
      std::string out = "(";
      out.append(to_source(*b.lhs)).append(" ").append(op_text(b.op));
      out.append(" ").append(to_source(*b.rhs)).append(")");
      return out;
    }
    std::string operator()(const Expr::Ternary& t) const {
      std::string out = "(";
      out.append(to_source(*t.cond)).append(" ? ").append(to_source(*t.if_true));
      out.append(" : ").append(to_source(*t.if_false)).append(")");
      return out;
    }
    std::string operator()(const Expr::ListExpr& l) const {
      std::string out = "{";
      for (std::size_t i = 0; i < l.items.size(); ++i) {
        if (i > 0) out += ", ";
        out += to_source(*l.items[i]);
      }
      return out + "}";
    }
    std::string operator()(const Expr::Call& c) const {
      std::string out = c.function + "(";
      for (std::size_t i = 0; i < c.args.size(); ++i) {
        if (i > 0) out += ", ";
        out += to_source(*c.args[i]);
      }
      return out + ")";
    }
  };
  return std::visit(Visitor{}, expr.node);
}

}  // namespace cg::jdl
