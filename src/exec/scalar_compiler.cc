#include "exec/scalar_compiler.h"

#include <vector>

namespace trance {
namespace exec {

namespace {

using nrc::Expr;
using nrc::ExprPtr;
using nrc::Type;
using nrc::TypePtr;
using runtime::CellRow;
using runtime::CellScalarFn;
using runtime::Field;

StatusOr<CellScalarFn> Compile(const ExprPtr& e, const runtime::Schema& schema) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kConst: {
      const auto& c = e->const_value();
      Field f;
      switch (c.kind) {
        case nrc::ScalarKind::kInt:
        case nrc::ScalarKind::kDate:
          f = Field::Int(std::get<int64_t>(c.v));
          break;
        case nrc::ScalarKind::kReal:
          f = Field::Real(std::get<double>(c.v));
          break;
        case nrc::ScalarKind::kString:
          f = Field::Str(std::get<std::string>(c.v));
          break;
        case nrc::ScalarKind::kBool:
          f = Field::Bool(std::get<bool>(c.v));
          break;
      }
      return CellScalarFn([f](const CellRow&) { return f; });
    }
    case K::kVarRef: {
      TRANCE_ASSIGN_OR_RETURN(int idx, schema.Require(e->var_name()));
      size_t i = static_cast<size_t>(idx);
      return CellScalarFn([i](const CellRow& r) { return r.Get(i); });
    }
    case K::kPrimOp: {
      TRANCE_ASSIGN_OR_RETURN(CellScalarFn a, Compile(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(CellScalarFn b, Compile(e->child(1), schema));
      TRANCE_ASSIGN_OR_RETURN(TypePtr ta,
                              ScalarResultType(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(TypePtr tb,
                              ScalarResultType(e->child(1), schema));
      bool int_result =
          e->prim_op() != nrc::PrimOpKind::kDiv && ta->is_scalar() &&
          tb->is_scalar() && ta->scalar_kind() != nrc::ScalarKind::kReal &&
          tb->scalar_kind() != nrc::ScalarKind::kReal;
      nrc::PrimOpKind op = e->prim_op();
      return CellScalarFn([a, b, op, int_result](const CellRow& r) -> Field {
        Field fa = a(r), fb = b(r);
        if (fa.is_null() || fb.is_null()) return Field::Null();
        double x = fa.AsNumber(), y = fb.AsNumber();
        double v = 0;
        switch (op) {
          case nrc::PrimOpKind::kAdd:
            v = x + y;
            break;
          case nrc::PrimOpKind::kSub:
            v = x - y;
            break;
          case nrc::PrimOpKind::kMul:
            v = x * y;
            break;
          case nrc::PrimOpKind::kDiv:
            if (y == 0) return Field::Null();
            v = x / y;
            break;
        }
        return int_result ? Field::Int(static_cast<int64_t>(v))
                          : Field::Real(v);
      });
    }
    case K::kCmp: {
      TRANCE_ASSIGN_OR_RETURN(CellScalarFn a, Compile(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(CellScalarFn b, Compile(e->child(1), schema));
      nrc::CmpOpKind op = e->cmp_op();
      return CellScalarFn([a, b, op](const CellRow& r) -> Field {
        Field fa = a(r), fb = b(r);
        if (fa.is_null() || fb.is_null()) return Field::Bool(false);
        switch (op) {
          case nrc::CmpOpKind::kEq:
            return Field::Bool(fa == fb);
          case nrc::CmpOpKind::kNe:
            return Field::Bool(!(fa == fb));
          case nrc::CmpOpKind::kLt:
            return Field::Bool(FieldLess(fa, fb));
          case nrc::CmpOpKind::kLe:
            return Field::Bool(!FieldLess(fb, fa));
          case nrc::CmpOpKind::kGt:
            return Field::Bool(FieldLess(fb, fa));
          case nrc::CmpOpKind::kGe:
            return Field::Bool(!FieldLess(fa, fb));
        }
        return Field::Bool(false);
      });
    }
    case K::kBoolOp: {
      TRANCE_ASSIGN_OR_RETURN(CellScalarFn a, Compile(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(CellScalarFn b, Compile(e->child(1), schema));
      bool is_and = e->bool_op() == nrc::BoolOpKind::kAnd;
      return CellScalarFn([a, b, is_and](const CellRow& r) -> Field {
        Field fa = a(r);
        bool va = fa.is_bool() && fa.AsBool();
        if (is_and && !va) return Field::Bool(false);
        if (!is_and && va) return Field::Bool(true);
        Field fb = b(r);
        return Field::Bool(fb.is_bool() && fb.AsBool());
      });
    }
    case K::kNot: {
      TRANCE_ASSIGN_OR_RETURN(CellScalarFn a, Compile(e->child(0), schema));
      return CellScalarFn([a](const CellRow& r) -> Field {
        Field fa = a(r);
        return Field::Bool(!(fa.is_bool() && fa.AsBool()));
      });
    }
    case K::kNewLabel: {
      std::vector<std::pair<std::string, CellScalarFn>> params;
      for (const auto& p : e->fields()) {
        TRANCE_ASSIGN_OR_RETURN(CellScalarFn pf, Compile(p.expr, schema));
        params.emplace_back(p.name, pf);
      }
      return CellScalarFn([params](const CellRow& r) -> Field {
        std::vector<std::pair<std::string, Field>> vals;
        vals.reserve(params.size());
        for (const auto& [n, f] : params) vals.emplace_back(n, f(r));
        return runtime::MakeLabel(std::move(vals));
      });
    }
    default:
      return Status::NotImplemented(
          "expression kind has no row-level compilation");
  }
}

}  // namespace

StatusOr<runtime::CellScalarFn> CompileCellScalar(
    const nrc::ExprPtr& e, const runtime::Schema& schema) {
  return Compile(e, schema);
}

StatusOr<runtime::CellPredFn> CompileCellPredicate(
    const nrc::ExprPtr& e, const runtime::Schema& schema) {
  TRANCE_ASSIGN_OR_RETURN(CellScalarFn f, Compile(e, schema));
  return runtime::CellPredFn([f](const CellRow& r) {
    Field v = f(r);
    return v.is_bool() && v.AsBool();
  });
}

StatusOr<nrc::TypePtr> ScalarResultType(const nrc::ExprPtr& e,
                                        const runtime::Schema& schema) {
  using K = Expr::Kind;
  switch (e->kind()) {
    case K::kConst:
      return Type::Scalar(e->const_value().kind);
    case K::kVarRef: {
      TRANCE_ASSIGN_OR_RETURN(int idx, schema.Require(e->var_name()));
      return schema.col(static_cast<size_t>(idx)).type;
    }
    case K::kPrimOp: {
      TRANCE_ASSIGN_OR_RETURN(TypePtr a, ScalarResultType(e->child(0), schema));
      TRANCE_ASSIGN_OR_RETURN(TypePtr b, ScalarResultType(e->child(1), schema));
      if (e->prim_op() == nrc::PrimOpKind::kDiv) return Type::Real();
      if ((a->is_scalar() && a->scalar_kind() == nrc::ScalarKind::kReal) ||
          (b->is_scalar() && b->scalar_kind() == nrc::ScalarKind::kReal)) {
        return Type::Real();
      }
      return Type::Int();
    }
    case K::kCmp:
    case K::kBoolOp:
    case K::kNot:
      return Type::Bool();
    case K::kNewLabel:
      return Type::Label();
    default:
      return Status::NotImplemented("no static type for this expression kind");
  }
}

}  // namespace exec
}  // namespace trance
