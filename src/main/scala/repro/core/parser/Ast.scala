package repro.core.parser

import repro.core.model.Item

/** Abstract syntax tree for the JSONiq subset (paper §5.2–5.3).
  *
  * The tree mirrors the paper's "tree of expressions and clauses":
  * expressions produce sequences of items, FLWOR clauses produce tuple
  * streams. The translator (`repro.core.semantics.Translator`) converts
  * this tree into runtime iterators.
  */
sealed trait ExprAst

/** Atomic literal: string, number, boolean, null. */
final case class LiteralExpr(item: Item) extends ExprAst

/** `$name` variable reference. */
final case class VarRefExpr(name: String) extends ExprAst

/** `$$` — the context item (bound inside predicates). */
case object ContextItemExpr extends ExprAst

/** `e1, e2, ...` — sequence concatenation. */
final case class CommaExpr(exprs: List[ExprAst]) extends ExprAst

/** An operator on its operands: `unary-minus` on one, a binary operator of
  * `Parser.levels` on two (a symbol comparison is named by its keyword). */
final case class OperatorExpr(op: String, operands: List[ExprAst]) extends ExprAst

final case class IfExpr(cond: ExprAst, thenE: ExprAst, elseE: ExprAst) extends ExprAst

/** `{ "k": v, ... }`. Keys are constant strings in this subset. */
final case class ObjectConstructorExpr(pairs: List[(String, ExprAst)]) extends ExprAst

/** `[ e ]` — array constructor over the (possibly empty) member expression. */
final case class ArrayConstructorExpr(expr: Option[ExprAst]) extends ExprAst

/** `e.key` — object lookup. */
final case class ObjectLookupExpr(target: ExprAst, key: String) extends ExprAst

/** `e[]` — array unboxing (flatten array items into their members). */
final case class ArrayUnboxExpr(target: ExprAst) extends ExprAst

/** `e[[i]]` — array member lookup by 1-based index. */
final case class ArrayLookupExpr(target: ExprAst, index: ExprAst) extends ExprAst

/** `e[p]` — predicate filter (EBV, or positional if `p` is numeric). */
final case class PredicateExpr(target: ExprAst, predicate: ExprAst) extends ExprAst

/** Built-in function call by name, e.g. `json-file("f")`, `count($x)`. */
final case class FunctionCallExpr(name: String, args: List[ExprAst]) extends ExprAst

/** FLWOR expression: clause list + return (paper §4.2–4.10). */
final case class FlworExpr(clauses: List[ClauseAst], ret: ExprAst) extends ExprAst

sealed trait ClauseAst
final case class ForClauseAst(bindings: List[(String, ExprAst)])          extends ClauseAst
final case class LetClauseAst(bindings: List[(String, ExprAst)])          extends ClauseAst
final case class WhereClauseAst(expr: ExprAst)                            extends ClauseAst
/** `group by $k (:= e)?, ...` — binding form desugars to a let. */
final case class GroupByClauseAst(keys: List[(String, Option[ExprAst])])  extends ClauseAst
final case class OrderByClauseAst(specs: List[OrderSpecAst])              extends ClauseAst
final case class OrderSpecAst(expr: ExprAst, descending: Boolean, emptyGreatest: Boolean)
final case class CountClauseAst(varName: String)                          extends ClauseAst
