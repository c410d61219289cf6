package repro.core.parser

import org.scalatest.funsuite.AnyFunSuite
import repro.core.model._

/** Lexer and parser unit tests: token shapes, AST shapes, static errors. */
class ParserSpec extends AnyFunSuite {

  // ------------------------------------------------------------- lexer

  test("lexes variables and context item") {
    assert(Lexer.tokenize("$x") == Vector(TVar("x"), TEOF))
    assert(Lexer.tokenize("$$") == Vector(TContextItem, TEOF))
    assert(Lexer.tokenize("$my-var") == Vector(TVar("my-var"), TEOF))
  }

  test("lexes hyphenated names as single tokens") {
    assert(Lexer.tokenize("json-file") == Vector(TName("json-file"), TEOF))
    assert(Lexer.tokenize("distinct-values") == Vector(TName("distinct-values"), TEOF))
  }

  test("a minus needs spacing to be an operator after a name") {
    // like XQuery: "a-b" is one name; "a - b" is a subtraction
    assert(Lexer.tokenize("a - b") ==
      Vector(TName("a"), TPunct("-"), TName("b"), TEOF))
    assert(Lexer.tokenize("a-b") == Vector(TName("a-b"), TEOF))
  }

  test("lexes numbers") {
    assert(Lexer.tokenize("42") == Vector(TNumber(IntItem(42)), TEOF))
    assert(Lexer.tokenize("1.5") == Vector(TNumber(DecimalItem(BigDecimal("1.5"))), TEOF))
    assert(Lexer.tokenize("2e3") == Vector(TNumber(DoubleItem(2000.0)), TEOF))
  }

  test("an integer literal past the range of a Long is a decimal") {
    assert(Lexer.tokenize("12345678901234567890") ==
      Vector(TNumber(DecimalItem(BigDecimal("12345678901234567890"))), TEOF))
    assert(Lexer.tokenize("9223372036854775807") ==
      Vector(TNumber(IntItem(Long.MaxValue)), TEOF))
    // the literal types stay: 1.5 is a decimal, 1.5e0 a double, and `.`
    // belongs to a number only when a digit follows
    assert(Lexer.tokenize("1.5e0") == Vector(TNumber(DoubleItem(1.5)), TEOF))
    assert(Lexer.tokenize("1E+2") == Vector(TNumber(DoubleItem(100.0)), TEOF))
    assert(Lexer.tokenize("1.a") ==
      Vector(TNumber(IntItem(1)), TPunct("."), TName("a"), TEOF))
  }

  test("an exponent without digits is a static error (XPST0003)") {
    Seq("1e", "1e+", "1E-", "2.5e", "1e+ 2").foreach { q =>
      val e = intercept[StaticException](Lexer.tokenize(q))
      assert(e.code == "XPST0003", q)
    }
  }

  test("only ASCII digits start a number literal") {
    val e = intercept[StaticException](Lexer.tokenize("\u0663"))
    assert(e.code == "XPST0003")
  }

  test("lexes strings with escapes") {
    assert(Lexer.tokenize("\"a\\nb\"") == Vector(TString("a\nb"), TEOF))
  }

  test("a string literal's length is counted in chars, not UTF-8 bytes") {
    assert(Lexer.tokenize("\"é€😀\" || \"x\"") ==
      Vector(TString("é€😀"), TPunct("||"), TString("x"), TEOF))
    assert(Lexer.tokenize("[\"a\\u00e9é\", 1]") ==
      Vector(TPunct("["), TString("aéé"), TPunct(","), TNumber(IntItem(1)), TPunct("]"), TEOF))
  }

  test("a bad string literal is a static error (XPST0003)") {
    Seq("\"unterminated", "\"bad \\q escape\"", "\"\\u12\"").foreach { q =>
      val e = intercept[StaticException](Lexer.tokenize(q))
      assert(e.code == "XPST0003", q)
    }
  }

  test("lexes two-char punctuation greedily") {
    assert(Lexer.tokenize("[[ ]] || != <= >= :=").collect { case TPunct(p) => p } ==
      Seq("[[", "]]", "||", "!=", "<=", ">="  , ":="))
  }

  test("skips comments") {
    assert(Lexer.tokenize("1 (: a comment :) + 2").collect { case TPunct(p) => p } == Seq("+"))
  }

  test("rejects bad characters") {
    assertThrows[StaticException](Lexer.tokenize("1 # 2"))
    assertThrows[StaticException](Lexer.tokenize("(: unterminated"))
    assertThrows[StaticException](Lexer.tokenize("$1"))
  }

  // ------------------------------------------------------------- parser

  test("parses literals") {
    assert(Parser.parse("1") == LiteralExpr(IntItem(1)))
    assert(Parser.parse("\"x\"") == LiteralExpr(StringItem("x")))
    assert(Parser.parse("true") == LiteralExpr(BooleanItem(true)))
    assert(Parser.parse("null") == LiteralExpr(NullItem))
  }

  private def lit(i: Long) = LiteralExpr(IntItem(i))
  private def op(name: String, operands: ExprAst*) = OperatorExpr(name, operands.toList)

  test("parses operator precedence") {
    assert(Parser.parse("1 + 2 * 3") ==
      op("+", lit(1), op("*", lit(2), lit(3))))
    assert(Parser.parse("1 + 2 eq 3") ==
      op("eq", op("+", lit(1), lit(2)), lit(3)))
    assert(Parser.parse("1 eq 1 and 2 eq 2") ==
      op("and", op("eq", lit(1), lit(1)), op("eq", lit(2), lit(2))))
    assert(Parser.parse("true or false and false") ==
      op("or", LiteralExpr(BooleanItem(true)),
        op("and", LiteralExpr(BooleanItem(false)), LiteralExpr(BooleanItem(false)))))
  }

  test("each operator level chains to the left, or takes one operator") {
    val s = (v: String) => LiteralExpr(StringItem(v))
    for ((q, tree) <- Seq(
      "1 or 2 or 3"         -> op("or", op("or", lit(1), lit(2)), lit(3)),
      "1 and 2 and 3"       -> op("and", op("and", lit(1), lit(2)), lit(3)),
      "1 eq 2 || 3"         -> op("eq", lit(1), op("||", lit(2), lit(3))),
      "\"a\" || \"b\" || \"c\"" -> op("||", op("||", s("a"), s("b")), s("c")),
      "1 || 2 to 3"         -> op("||", lit(1), op("to", lit(2), lit(3))),
      "1 to 2 + 3"          -> op("to", lit(1), op("+", lit(2), lit(3))),
      "10 - 4 - 3"          -> op("-", op("-", lit(10), lit(4)), lit(3)),
      "1 - 2 + 3"           -> op("+", op("-", lit(1), lit(2)), lit(3)),
      "8 div 2 div 2"       -> op("div", op("div", lit(8), lit(2)), lit(2)),
      "7 mod 4 idiv 2 * 3"  -> op("*", op("idiv", op("mod", lit(7), lit(4)), lit(2)), lit(3)),
      "-2 * 3"              -> op("*", op("unary-minus", lit(2)), lit(3)),
      "- -2"                -> op("unary-minus", op("unary-minus", lit(2))),
      "-$x.a"               -> op("unary-minus", ObjectLookupExpr(VarRefExpr("x"), "a")),
    )) assert(Parser.parse(q) == tree, q)
    for (q <- Seq("1 eq 1 eq 1", "1 < 2 < 3", "1 eq 1 ne 1", "1 to 2 to 3")) {
      val e = intercept[StaticException](Parser.parse(q))
      assert(e.code == "XPST0003", q)
    }
  }

  test("parses comma sequences at top level only inside parens or top") {
    assert(Parser.parse("1, 2") == CommaExpr(List(LiteralExpr(IntItem(1)), LiteralExpr(IntItem(2)))))
    assert(Parser.parse("()") == CommaExpr(Nil))
  }

  test("parses postfix chains") {
    assert(Parser.parse("$x.foo") == ObjectLookupExpr(VarRefExpr("x"), "foo"))
    assert(Parser.parse("$x.\"a b\"") == ObjectLookupExpr(VarRefExpr("x"), "a b"))
    assert(Parser.parse("$x[]") == ArrayUnboxExpr(VarRefExpr("x")))
    assert(Parser.parse("$x[[1]]") ==
      ArrayLookupExpr(VarRefExpr("x"), LiteralExpr(IntItem(1))))
    assert(Parser.parse("$x[$$ eq 1]") ==
      PredicateExpr(VarRefExpr("x"), op("eq", ContextItemExpr, lit(1))))
    assert(Parser.parse("$x.a[].b") ==
      ObjectLookupExpr(ArrayUnboxExpr(ObjectLookupExpr(VarRefExpr("x"), "a")), "b"))
  }

  test("parses constructors") {
    assert(Parser.parse("{\"a\": 1}") ==
      ObjectConstructorExpr(List("a" -> LiteralExpr(IntItem(1)))))
    assert(Parser.parse("{a: 1}") ==
      ObjectConstructorExpr(List("a" -> LiteralExpr(IntItem(1)))))
    assert(Parser.parse("[1, 2]") ==
      ArrayConstructorExpr(Some(CommaExpr(List(LiteralExpr(IntItem(1)), LiteralExpr(IntItem(2)))))))
    assert(Parser.parse("[]") == ArrayConstructorExpr(None))
  }

  test("parses function calls") {
    assert(Parser.parse("count($x)") == FunctionCallExpr("count", List(VarRefExpr("x"))))
    assert(Parser.parse("json-file(\"f\", 4)") ==
      FunctionCallExpr("json-file", List(LiteralExpr(StringItem("f")), LiteralExpr(IntItem(4)))))
    assert(Parser.parse("concat()") == FunctionCallExpr("concat", Nil))
  }

  test("parses if-then-else") {
    assert(Parser.parse("if (1) then 2 else 3") ==
      IfExpr(LiteralExpr(IntItem(1)), LiteralExpr(IntItem(2)), LiteralExpr(IntItem(3))))
  }

  test("parses a full FLWOR") {
    val ast = Parser.parse(
      """for $p in json-file("people.json")
        |where $p.age le 65
        |group by $pos := $p.position
        |let $c := count($p) gt 10
        |order by $c descending
        |count $n
        |return { "position" : $pos, "count" : $c }""".stripMargin)
    val f = ast.asInstanceOf[FlworExpr]
    assert(f.clauses.size == 6)
    assert(f.clauses(0).isInstanceOf[ForClauseAst])
    assert(f.clauses(1).isInstanceOf[WhereClauseAst])
    assert(f.clauses(2).isInstanceOf[GroupByClauseAst])
    assert(f.clauses(3).isInstanceOf[LetClauseAst])
    val ob = f.clauses(4).asInstanceOf[OrderByClauseAst]
    assert(ob.specs.head.descending)
    assert(f.clauses(5) == CountClauseAst("n"))
  }

  test("parses multi-variable for and let") {
    val f = Parser.parse("for $a in 1, $b in 2 let $c := 3, $d := 4 return $a")
      .asInstanceOf[FlworExpr]
    assert(f.clauses(0).asInstanceOf[ForClauseAst].bindings.map(_._1) == List("a", "b"))
    assert(f.clauses(1).asInstanceOf[LetClauseAst].bindings.map(_._1) == List("c", "d"))
  }

  test("parses order-by modifiers") {
    val f = Parser.parse(
      "for $x in 1 order by $x ascending empty greatest, $x descending empty least return $x")
      .asInstanceOf[FlworExpr]
    val specs = f.clauses(1).asInstanceOf[OrderByClauseAst].specs
    assert(specs(0) == OrderSpecAst(VarRefExpr("x"), descending = false, emptyGreatest = true))
    assert(specs(1) == OrderSpecAst(VarRefExpr("x"), descending = true, emptyGreatest = false))
  }

  test("parses symbol comparison aliases to named ops") {
    assert(Parser.parse("1 < 2") == Parser.parse("1 lt 2"))
    assert(Parser.parse("1 >= 2") == Parser.parse("1 ge 2"))
    assert(Parser.parse("1 != 2") == Parser.parse("1 ne 2"))
    assert(Parser.parse("1 = 2") == Parser.parse("1 eq 2"))
    assert(Parser.parse("1 <= 2") == Parser.parse("1 le 2"))
    assert(Parser.parse("1 > 2") == Parser.parse("1 gt 2"))
  }

  test("rejects syntax errors") {
    assertThrows[StaticException](Parser.parse("for $x return 1"))
    assertThrows[StaticException](Parser.parse("1 +"))
    assertThrows[StaticException](Parser.parse("{\"a\" 1}"))
    assertThrows[StaticException](Parser.parse("for $x in 1"))
    assertThrows[StaticException](Parser.parse("let $x = 1 return $x"))
    assertThrows[StaticException](Parser.parse("(1"))
    assertThrows[StaticException](Parser.parse("1 2"))
  }
}
