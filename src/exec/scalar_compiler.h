// Compiles plan scalar expressions (NRC scalar nodes whose free variables
// are column names) into closures over a cell accessor (runtime::CellRow,
// `Field Get(size_t)`), with SQL-style NULL propagation: NULL operands make
// arithmetic NULL and comparisons false. NewLabel expressions evaluate to
// runtime labels. The fused-stage runner evaluates the closures directly
// on cell references.
#ifndef TRANCE_EXEC_SCALAR_COMPILER_H_
#define TRANCE_EXEC_SCALAR_COMPILER_H_

#include "nrc/expr.h"
#include "runtime/field.h"
#include "runtime/schema.h"
#include "runtime/stage_pipeline.h"
#include "util/status.h"

namespace trance {
namespace exec {

/// Compiles `e` against `schema` into a closure over a row's cells; fails if
/// a referenced column is missing or a node kind has no row-level meaning.
StatusOr<runtime::CellScalarFn> CompileCellScalar(
    const nrc::ExprPtr& e, const runtime::Schema& schema);

/// Compiles a boolean expression into a cell predicate (NULL -> false).
StatusOr<runtime::CellPredFn> CompileCellPredicate(
    const nrc::ExprPtr& e, const runtime::Schema& schema);

/// Static result type of a compiled scalar expression.
StatusOr<nrc::TypePtr> ScalarResultType(const nrc::ExprPtr& e,
                                        const runtime::Schema& schema);

}  // namespace exec
}  // namespace trance

#endif  // TRANCE_EXEC_SCALAR_COMPILER_H_
