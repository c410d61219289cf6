package repro.core.semantics

import repro.core.model._
import repro.core.parser._
import repro.core.runtime._
import repro.core.runtime.flwor._

/** Static context (paper §5.3): chained scopes of in-scope variables.
  * Each scope holds only its own variables and a parent reference, so no
  * bindings are duplicated. `allowContextItem` tracks whether `$$` is legal
  * (inside predicates). */
final class StaticContext(
    parent: Option[StaticContext],
    vars: Set[String],
    val allowContextItem: Boolean,
) {
  def hasVar(name: String): Boolean =
    vars.contains(name) || parent.exists(_.hasVar(name))

  def withVar(name: String): StaticContext =
    new StaticContext(Some(this), Set(name), allowContextItem)

  def withContextItem: StaticContext =
    new StaticContext(Some(this), Set.empty, allowContextItem = true)
}

object StaticContext {
  val root: StaticContext = new StaticContext(None, Set.empty, allowContextItem = false)
}

/** Translates the expression/clause tree into runtime iterators (paper
  * §5.4), checking variable references against the static context and
  * function calls against the builtin registry, and raising static errors
  * before execution. */
object Translator {

  def translate(ast: ExprAst): RuntimeIterator = translateExpr(ast, StaticContext.root)

  def translateExpr(ast: ExprAst, sc: StaticContext): RuntimeIterator = ast match {
    case LiteralExpr(item) => new LiteralIterator(item)

    case VarRefExpr(name) =>
      if (!sc.hasVar(name))
        throw new StaticException("XPST0008", s"undeclared variable $$$name")
      new VarRefIterator(name)

    case ContextItemExpr =>
      if (!sc.allowContextItem)
        throw new StaticException("XPST0008", "$$ used outside of a predicate")
      new ContextItemIterator

    case CommaExpr(parts) => new CommaIterator(parts.map(translateExpr(_, sc)))

    case OperatorExpr(op, operands) => Builtins.operators(op).make(operands.map(translateExpr(_, sc)))

    case IfExpr(c, t, e) =>
      new IfIterator(translateExpr(c, sc), translateExpr(t, sc), translateExpr(e, sc))

    case ObjectConstructorExpr(pairs) =>
      new ObjectConstructorIterator(pairs.map { case (k, v) => (k, translateExpr(v, sc)) })

    case ArrayConstructorExpr(e) =>
      new ArrayConstructorIterator(e.map(translateExpr(_, sc)))

    case ObjectLookupExpr(t, k) => new ObjectLookupIterator(translateExpr(t, sc), k)
    case ArrayUnboxExpr(t)      => new ArrayUnboxIterator(translateExpr(t, sc))
    case ArrayLookupExpr(t, i) =>
      new ArrayLookupIterator(translateExpr(t, sc), translateExpr(i, sc))

    case PredicateExpr(t, p) =>
      new PredicateIterator(translateExpr(t, sc), translateExpr(p, sc.withContextItem),
        isBoolean(p))

    case FunctionCallExpr(name, args) => Builtins.resolve(name, args.map(translateExpr(_, sc)))

    case FlworExpr(clauses, ret) => translateFlwor(clauses, ret, sc)
  }

  /** Builds the clause list, desugaring multi-variable for/let clauses
    * into one clause iterator per binding, and group-by binding forms
    * (`group by $k := e`) into a let followed by a group.
    *
    * At each group-by, the remaining clauses + return expression are
    * analyzed per non-grouping variable (paper §4.7): a variable used only
    * as `count($v)` is aggregated with COUNT() (downstream calls are
    * rewritten to a hidden `$v#count` variable); an unused variable is
    * dropped entirely. */
  private def translateFlwor(clauses: List[ClauseAst], ret0: ExprAst,
                             sc0: StaticContext): RuntimeIterator = {
    val (clauseKeys, allKeys) = keysRead(clauses, ret0)
    var built     = Vector.empty[ClauseIterator]
    var sc        = sc0
    var remaining = clauses
    var ret       = ret0

    // the tuple stream's variables so far, in binding order
    def inScope: Vector[String] = built.lastOption.fold(Vector.empty[String])(_.vars)

    // binds `name` to each item of `expr` (a for) or to all of them (a let)
    def bind(name: String, expr: ExprAst, each: Boolean): Unit = {
      val e = translateExpr(expr, sc)
      built :+= (if (each) new ForClauseIterator(inScope, name, e)
                 else new LetClauseIterator(inScope, name, e))
      sc = sc.withVar(name)
    }

    while (remaining.nonEmpty) {
      val clause = remaining.head
      remaining = remaining.tail
      // what the later clauses and `return` read: group by and order by keep only that
      val downstream = remaining.flatMap(clauseExprs) :+ ret
      clause match {
        case ForClauseAst(bindings) => bindings.foreach { case (v, e) => bind(v, e, each = true) }
        case LetClauseAst(bindings) => bindings.foreach { case (v, e) => bind(v, e, each = false) }

        case WhereClauseAst(e) =>
          built :+= new WhereClauseIterator(inScope, translateExpr(e, sc))

        case GroupByClauseAst(keys) =>
          // binding form first: group by $k := e  ≡  let $k := e then group by $k
          keys.foreach {
            case (v, Some(e)) => bind(v, e, each = false)
            case (v, None) =>
              if (!inScope.contains(v))
                throw new StaticException("XPST0008", s"grouping variable $$$v not in scope")
          }
          val keyNames     = keys.map(_._1)
          val reboundBelow = remaining.flatMap(clauseBoundVars).toSet
          val uses = inScope.filterNot(keyNames.contains).map(v =>
            v -> Usage.of(downstream.map(usage(_, v))))
          // materialized unless only counted or unused (and not rebound below)
          val kept    = uses.collect { case (v, u) if reboundBelow(v) || u.used && !u.onlyCount => v }
          val counted = uses.collect { case (v, u) if u.used && !kept.contains(v) => v }
          // rewrite downstream count($v) → $v#count for the counted variables
          remaining = remaining.map(mapClause(_, rewriteCount(_, counted.toSet)))
          ret = rewriteCount(ret, counted.toSet)
          counted.foreach(v => sc = sc.withVar(v + "#count"))
          built :+= new GroupByClauseIterator(keyNames, kept, counted)

        case OrderByClauseAst(specs) =>
          val compiled = specs.map(s =>
            OrderSpec(translateExpr(s.expr, sc), s.descending, s.emptyGreatest))
          val groupKeys = remaining.flatMap {
            case GroupByClauseAst(ks) => ks.map(_._1)
            case _                    => Nil
          }
          val kept = inScope.filter(v =>
            groupKeys.contains(v) || downstream.exists(usage(_, v).used))
          built :+= new OrderByClauseIterator(inScope, compiled, kept)

        case CountClauseAst(v) =>
          built :+= new CountClauseIterator(inScope, v)
          sc = sc.withVar(v)
      }
    }

    new FlworIterator(built.toList, translateExpr(ret, sc), singletonReturn(ret, clauses),
      clauseKeys, allKeys)
  }

  /** The top-level keys of the initial `for` variable `$v` that the later
    * clauses read, and that they and the return read (paper's data
    * independence applied to the read: `json-file` on Spark builds only
    * these, see `FlworIterator.keptKeys`). `None` when a use may read the
    * whole object: `$v` itself, `$v[]`, `$v[[i]]`, `$v[p]`, `$v` as the
    * argument of any function but `count`, a nested FLWOR that rebinds `$v`,
    * or a later clause that rebinds or groups by `$v`. */
  private def keysRead(clauses: List[ClauseAst], ret: ExprAst)
      : (Option[Set[String]], Option[Set[String]]) = clauses match {
    case ForClauseAst((v, _) :: more) :: rest =>
      val later = ForClauseAst(more) :: rest
      val rebound = later.flatMap {
        case GroupByClauseAst(ks) => ks.map(_._1)
        case c                    => clauseBoundVars(c)
      }
      if (rebound.contains(v)) (None, None)
      else {
        val inClauses = Usage.of(later.flatMap(clauseExprs).map(usage(_, v)))
        (inClauses.keys, Usage.of(Seq(inClauses, usage(ret, v))).keys)
      }
    case _ => (None, None)
  }

  /** Builtins and operators whose result is always one boolean. */
  private val booleanFunctions = Set("boolean", "not", "empty", "exists", "contains", "starts-with")
  private val booleanOperators = Set("eq", "ne", "lt", "le", "gt", "ge", "and", "or")

  /** True when `p` never yields a number: a comparison, `and`/`or`, a
    * boolean literal or a boolean builtin. A predicate over it filters by
    * EBV and never selects by position. */
  private def isBoolean(p: ExprAst): Boolean = p match {
    case OperatorExpr(op, _)         => booleanOperators.contains(op)
    case LiteralExpr(BooleanItem(_)) => true
    case FunctionCallExpr(name, _)   => booleanFunctions.contains(name)
    case _                           => false
  }

  /** True when the return expression provably yields exactly one item per
    * tuple, enabling the count-action pushdown (see FlworIterator). */
  private def singletonReturn(ret: ExprAst, clauses: List[ClauseAst]): Boolean = {
    // variables whose binding is always a singleton: for-bound (one item
    // per tuple) and count-bound — unless later rebound by a let
    val singletonVars = clauses.foldLeft(Set.empty[String]) { (acc, c) =>
      c match {
        case ForClauseAst(bs)  => acc ++ bs.map(_._1)
        case CountClauseAst(v) => acc + v
        case LetClauseAst(bs)  => acc -- bs.map(_._1)
        case GroupByClauseAst(_) =>
          // after grouping, non-key variables hold whole groups and key
          // variables may be bound to the empty sequence — none is a
          // guaranteed singleton
          Set.empty
        case _ => acc
      }
    }
    ret match {
      case LiteralExpr(_)            => true
      case ObjectConstructorExpr(_)  => true
      case ArrayConstructorExpr(_)   => true
      case VarRefExpr(v)             => singletonVars.contains(v)
      case _                         => false
    }
  }

  // ---------- usage analysis: group-by modes, order-by cells, projected reads

  private def clauseBoundVars(c: ClauseAst): List[String] = c match {
    case ForClauseAst(bs)     => bs.map(_._1)
    case LetClauseAst(bs)     => bs.map(_._1)
    case GroupByClauseAst(ks) => ks.collect { case (v, Some(_)) => v }
    case CountClauseAst(v)    => List(v)
    case _                    => Nil
  }

  /** How an expression uses a variable `$v`: whether at all; whether only
    * as `count($v)` (§4.7); and the top-level keys it reads of `$v` when
    * every use is `$v.key` or `count($v)`, else `None`. */
  private final case class Usage(used: Boolean, onlyCount: Boolean, keys: Option[Set[String]])

  private object Usage {
    val unused: Usage = Usage(used = false, onlyCount = false, Some(Set.empty))
    val whole: Usage  = Usage(used = true, onlyCount = false, None)

    /** The uses of several expressions together. */
    def of(uses: Seq[Usage]): Usage = {
      val used = uses.exists(_.used)
      Usage(used, used && uses.filter(_.used).forall(_.onlyCount),
        uses.foldLeft(unused.keys)((ks, u) => for (a <- ks; b <- u.keys) yield a ++ b))
    }
  }

  /** The use of variable `v` in `ast`. A nested FLWOR that rebinds `v` is
    * conservatively reported as a use of the whole value, so the group-by
    * falls back to materializing and the read is not projected. */
  private def usage(ast: ExprAst, v: String): Usage = ast match {
    case VarRefExpr(`v`) => Usage.whole
    case FunctionCallExpr("count", List(VarRefExpr(`v`))) =>
      Usage(used = true, onlyCount = true, Some(Set.empty))
    case ObjectLookupExpr(VarRefExpr(`v`), k) => Usage(used = true, onlyCount = false, Some(Set(k)))
    case FlworExpr(cs, _) if cs.flatMap(clauseBoundVars).contains(v) => Usage.whole
    case other => Usage.of(childrenOf(other).map(usage(_, v)))
  }

  /** Replace `count($v)` with `$v#count` everywhere in `ast`, for each `v` in `vs`. */
  private def rewriteCount(ast: ExprAst, vs: Set[String]): ExprAst = ast match {
    case FunctionCallExpr("count", List(VarRefExpr(v))) if vs(v) => VarRefExpr(v + "#count")
    case other => mapChildren(other, rewriteCount(_, vs))
  }

  // ---------- the one traversal: `mapClause` and `mapChildren` alone list
  // the children of each clause and expression shape, and the usage analysis
  // reads the same lists, so it and the rewrite cannot disagree on a shape.
  // Both matches are exhaustive, so the compiler flags a shape left out.

  /** The expressions `map` hands to its function, in order. */
  private def visited(map: (ExprAst => ExprAst) => Any): List[ExprAst] = {
    val seen = List.newBuilder[ExprAst]
    map { e => seen += e; e }
    seen.result()
  }

  /** The expressions directly contained in a clause. */
  private def clauseExprs(c: ClauseAst): List[ExprAst] = visited(mapClause(c, _))

  /** The expressions directly contained in an expression. */
  private def childrenOf(ast: ExprAst): List[ExprAst] = visited(mapChildren(ast, _))

  /** `c` with `f` applied to each of its expressions. */
  private def mapClause(c: ClauseAst, f: ExprAst => ExprAst): ClauseAst = c match {
    case ForClauseAst(bs)     => ForClauseAst(bs.map { case (n, e) => (n, f(e)) })
    case LetClauseAst(bs)     => LetClauseAst(bs.map { case (n, e) => (n, f(e)) })
    case WhereClauseAst(e)    => WhereClauseAst(f(e))
    case GroupByClauseAst(ks) => GroupByClauseAst(ks.map { case (n, e) => (n, e.map(f)) })
    case OrderByClauseAst(ss) => OrderByClauseAst(ss.map(s => s.copy(expr = f(s.expr))))
    case cc: CountClauseAst   => cc
  }

  private def mapChildren(ast: ExprAst, f: ExprAst => ExprAst): ExprAst = ast match {
    case CommaExpr(parts)             => CommaExpr(parts.map(f))
    case OperatorExpr(op, operands)   => OperatorExpr(op, operands.map(f))
    case IfExpr(c, t, e)              => IfExpr(f(c), f(t), f(e))
    case ObjectConstructorExpr(pairs) =>
      ObjectConstructorExpr(pairs.map { case (k, e) => (k, f(e)) })
    case ArrayConstructorExpr(e)      => ArrayConstructorExpr(e.map(f))
    case ObjectLookupExpr(t, k)       => ObjectLookupExpr(f(t), k)
    case ArrayUnboxExpr(t)            => ArrayUnboxExpr(f(t))
    case ArrayLookupExpr(t, i)        => ArrayLookupExpr(f(t), f(i))
    case PredicateExpr(t, p)          => PredicateExpr(f(t), f(p))
    case FunctionCallExpr(n, args)    => FunctionCallExpr(n, args.map(f))
    case FlworExpr(cs, r)             => FlworExpr(cs.map(mapClause(_, f)), f(r))
    case _: LiteralExpr | _: VarRefExpr | ContextItemExpr => ast
  }
}
