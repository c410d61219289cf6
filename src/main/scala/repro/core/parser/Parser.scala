package repro.core.parser

import repro.core.model._

/** Hand-written recursive-descent parser for the JSONiq subset (§5.2).
  *
  * Operator precedence, lowest to highest: comma < the binary operators
  * (`levels`) < unary < postfix (lookup/unbox/predicate).
  *
  * FLWOR expressions must start with `for` or `let` and end with `return`;
  * clauses may be combined and ordered at will in between (paper §2.3).
  */
final class Parser(tokens: Vector[Token]) {
  // mutable so the lexer's greedy `[[`/`]]` tokens can be split back into
  // two brackets when the grammar needs single ones (nested array
  // constructors) — the classic JSONiq bracket ambiguity
  private val toks = scala.collection.mutable.ArrayBuffer.from(tokens)
  private var pos  = 0

  private def peek: Token      = toks(pos)
  private def peekAt(k: Int)   = toks(math.min(pos + k, toks.length - 1))
  private def advance(): Token = { val t = toks(pos); pos += 1; t }

  private def fail(msg: String): Nothing =
    throw new StaticException("XPST0003", s"$msg but found ${peek.describe}")

  private def expectPunct(p: String): Unit = peek match {
    case TPunct(`p`) => pos += 1
    // "]]" where a single "]" is expected: consume one bracket, keep one
    case TPunct("]]") if p == "]" => toks(pos) = TPunct("]")
    case _           => fail(s"expected '$p'")
  }

  private def peekName(n: String): Boolean = peek match {
    case TName(`n`) => true
    case _          => false
  }

  private def eatName(n: String): Unit =
    if (peekName(n)) pos += 1 else fail(s"expected keyword '$n'")

  /** Consume the optional keyword `n`, telling whether it was there. */
  private def accept(n: String): Boolean = peekName(n) && { pos += 1; true }

  private def expectVar(): String = peek match {
    case TVar(v) => pos += 1; v
    case _       => fail("expected a variable")
  }

  def parseQuery(): ExprAst = {
    val e = parseExpr()
    peek match {
      case TEOF => e
      case _    => fail("expected end of query")
    }
  }

  /** `item ("," item)*`: the one comma-list rule of the grammar. */
  private def commaSeparated[A](item: => A): List[A] = {
    val items = List.newBuilder[A]
    items += item
    while (peek == TPunct(",")) { advance(); items += item }
    items.result()
  }

  /** Expr := ExprSingle ("," ExprSingle)* */
  private def parseExpr(): ExprAst = commaSeparated(parseExprSingle()) match {
    case single :: Nil => single
    case parts         => CommaExpr(parts)
  }

  private def parseExprSingle(): ExprAst = peek match {
    case TName("for") | TName("let") if peekAt(1).isInstanceOf[TVar] => parseFlwor()
    case _                                                          => parseBinary(0)
  }

  private def parseIf(): ExprAst = {
    eatName("if"); expectPunct("(")
    val cond = parseExpr()
    expectPunct(")")
    eatName("then")
    val t = parseExprSingle()
    eatName("else")
    val e = parseExprSingle()
    IfExpr(cond, t, e)
  }

  // ---------------------------------------------------------------- FLWOR

  private def parseFlwor(): ExprAst = {
    val clauses = scala.collection.mutable.ListBuffer.empty[ClauseAst]
    // initial clause
    if (peekName("for")) clauses += parseForClause()
    else clauses += parseLetClause()
    var ret: Option[ExprAst] = None
    while (ret.isEmpty) {
      peek match {
        case TName("for")    => clauses += parseForClause()
        case TName("let")    => clauses += parseLetClause()
        case TName("where")  => advance(); clauses += WhereClauseAst(parseExprSingle())
        case TName("group")  => advance(); eatName("by"); clauses += parseGroupBy()
        case TName("order")  => advance(); eatName("by"); clauses += parseOrderBy()
        case TName("stable") => advance(); eatName("order"); eatName("by"); clauses += parseOrderBy()
        case TName("count")  => advance(); clauses += CountClauseAst(expectVar())
        case TName("return") => advance(); ret = Some(parseExprSingle())
        case _               => fail("expected a FLWOR clause or 'return'")
      }
    }
    FlworExpr(clauses.toList, ret.get)
  }

  private def parseForClause(): ClauseAst = {
    eatName("for")
    ForClauseAst(commaSeparated { val v = expectVar(); eatName("in"); (v, parseExprSingle()) })
  }

  private def parseLetClause(): ClauseAst = {
    eatName("let")
    LetClauseAst(commaSeparated { val v = expectVar(); expectPunct(":="); (v, parseExprSingle()) })
  }

  private def parseGroupBy(): ClauseAst = GroupByClauseAst(commaSeparated {
    val v = expectVar()
    (v, if (peek == TPunct(":=")) { advance(); Some(parseExprSingle()) } else None)
  })

  private def parseOrderBy(): ClauseAst = OrderByClauseAst(commaSeparated {
    val e             = parseExprSingle()
    val desc          = !accept("ascending") && accept("descending")
    val emptyGreatest = accept("empty") && (accept("greatest") || { eatName("least"); false })
    OrderSpecAst(e, desc, emptyGreatest)
  })

  // ----------------------------------------------------------- operators

  /** The binary operators, lowest precedence first, each level with
    * whether it chains to the left (`a - b - c`) or takes at most one
    * operator (`a eq b`, `a to b`: `1 eq 1 eq 1` is XPST0003). */
  private val levels: Vector[(Set[String], Boolean)] = Vector(
    Set("or")                               -> true,
    Set("and")                              -> true,
    Set("eq", "ne", "lt", "le", "gt", "ge") -> false,
    Set("||")                               -> true,
    Set("to")                               -> false,
    Set("+", "-")                           -> true,
    Set("*", "div", "idiv", "mod")          -> true,
  )
  private val symbolCmp = Map("=" -> "eq", "!=" -> "ne", "<" -> "lt",
                              "<=" -> "le", ">" -> "gt", ">=" -> "ge")

  /** The operator the next token would name; a symbol comparison names its keyword. */
  private def operator: String = peek match {
    case TName(s)  => s
    case TPunct(s) => symbolCmp.getOrElse(s, s)
    case _         => ""
  }

  private def parseBinary(level: Int): ExprAst =
    if (level == levels.size) parseUnary()
    else {
      val (ops, chains) = levels(level)
      var lhs           = parseBinary(level + 1)
      var op            = operator
      while (ops(op)) {
        advance()
        lhs = OperatorExpr(op, List(lhs, parseBinary(level + 1)))
        op = if (chains) operator else ""
      }
      lhs
    }

  private def parseUnary(): ExprAst = peek match {
    case TPunct("-") => advance(); OperatorExpr("unary-minus", List(parseUnary()))
    case TPunct("+") => advance(); OperatorExpr("unary-plus", List(parseUnary()))
    case _           => parsePostfix()
  }

  // ------------------------------------------------------------- postfix

  private def parsePostfix(): ExprAst = {
    var e    = parsePrimary()
    var more = true
    while (more) peek match {
      case TPunct(".") =>
        advance()
        peek match {
          case TName(k)   => advance(); e = ObjectLookupExpr(e, k)
          case TString(k) => advance(); e = ObjectLookupExpr(e, k)
          case _          => fail("expected a key after '.'")
        }
      case TPunct("[[") =>
        advance()
        val idx = parseExpr()
        expectPunct("]]")
        e = ArrayLookupExpr(e, idx)
      case TPunct("[") =>
        advance()
        if (peek == TPunct("]")) { advance(); e = ArrayUnboxExpr(e) }
        else {
          val p = parseExpr()
          expectPunct("]")
          e = PredicateExpr(e, p)
        }
      case _ => more = false
    }
    e
  }

  private def parsePrimary(): ExprAst = peek match {
    case TNumber(i)   => advance(); LiteralExpr(i)
    case TString(s)   => advance(); LiteralExpr(StringItem(s))
    case TVar(v)      => advance(); VarRefExpr(v)
    case TContextItem => advance(); ContextItemExpr
    case TName("true") if peekAt(1) != TPunct("(")  => advance(); LiteralExpr(BooleanItem(true))
    case TName("false") if peekAt(1) != TPunct("(") => advance(); LiteralExpr(BooleanItem(false))
    case TName("null") if peekAt(1) != TPunct("(")  => advance(); LiteralExpr(NullItem)
    case TName("if") if peekAt(1) == TPunct("(")    => parseIf()
    case TName(fn) if peekAt(1) == TPunct("(") =>
      advance(); advance() // name (
      val args = if (peek == TPunct(")")) Nil else commaSeparated(parseExprSingle())
      expectPunct(")")
      FunctionCallExpr(fn, args)
    case TPunct("(") =>
      advance()
      if (peek == TPunct(")")) { advance(); CommaExpr(Nil) } // empty sequence ()
      else {
        val e = parseExpr()
        expectPunct(")")
        e
      }
    case TPunct("{") =>
      advance()
      val pairs = if (peek == TPunct("}")) Nil else commaSeparated {
        val key = peek match {
          case TString(s) => advance(); s
          case TName(s)   => advance(); s
          case _          => fail("expected an object key")
        }
        expectPunct(":")
        (key, parseExprSingle())
      }
      expectPunct("}")
      ObjectConstructorExpr(pairs)
    case TPunct("[") =>
      advance()
      if (peek == TPunct("]")) { advance(); ArrayConstructorExpr(None) }
      else if (peek == TPunct("]]")) { // "[]]": empty array then a "]"
        toks(pos) = TPunct("]")
        ArrayConstructorExpr(None)
      } else {
        val e = parseExpr()
        expectPunct("]")
        ArrayConstructorExpr(Some(e))
      }
    case TPunct("[[") =>
      // "[[" in expression position: two array-constructor brackets
      toks(pos) = TPunct("[")
      toks.insert(pos, TPunct("["))
      parsePrimary()
    case _ => fail("expected an expression")
  }
}

object Parser {
  /** Parse a JSONiq query string into an AST. */
  def parse(query: String): ExprAst = new Parser(Lexer.tokenize(query)).parseQuery()
}
