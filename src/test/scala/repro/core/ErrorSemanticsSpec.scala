package repro.core

import org.scalatest.exceptions.TestFailedException
import repro.core.model.{IntItem, RumbleException, StaticException}
import repro.core.runtime.Builtins

/** Error semantics: static errors raised before execution, dynamic errors
  * (type errors, incompatible comparisons, division by zero) at runtime. */
class ErrorSemanticsSpec extends RumbleSpec {

  private def staticError(q: String, code: String = "XPST"): Unit = {
    val e = intercept[StaticException](rumbleLocal.compile(q))
    assert(e.code.startsWith(code), s"$q: expected $code, got ${e.code}")
  }

  test("undeclared variable is a static error (XPST0008)") { staticError("$nope") }
  test("undeclared variable inside FLWOR") { staticError("for $x in 1 return $y") }
  test("variable not visible before its binding clause") {
    staticError("for $x in $y let $y := 1 return $x")
  }
  test("$$ outside a predicate is a static error") { staticError("$$ + 1") }
  test("a number literal with an exponent but no digits fails compile (XPST0003)") {
    Seq("1e", "1e+", "for $x in 1 to 3 return $x * 2E-").foreach(staticError(_, "XPST0003"))
  }
  test("an integer literal past the range of a Long evaluates to a decimal") {
    assert(evalLocal("12345678901234567890 + 1") == "12345678901234567891")
  }
  test("$$ legal inside a predicate") {
    assert(evalLocal("(1, 2)[$$ eq 2]") == "2")
  }
  test("unknown function is a static error (XPST0017)") {
    val e = intercept[RumbleException](rumbleLocal.run("frobnicate(1)"))
    assert(e.code == "XPST0017")
  }
  test("count() arity is checked") {
    val e = intercept[RumbleException](rumbleLocal.run("count(1, 2)"))
    assert(e.code == "XPST0017")
  }
  test("wrong arity, or an unknown function in a dead branch, fails compile (XPST0017)") {
    Seq("substring(\"abc\")", "round()", "subsequence((1,2))", "string-join()",
        "json-file()", "parallelize()", "count(1, 2)", "if (true) then 1 else nosuchfn(1)")
      .foreach(staticError(_, "XPST0017"))
  }
  test("every registered builtin checks its arity at compile time") {
    def call(name: String, n: Int) = s"$name(${Seq.fill(n)("1").mkString(", ")})"
    Builtins.registry.foreach { case (name, b) =>
      if (b.maxArgs < Int.MaxValue) staticError(call(name, b.maxArgs + 1), "XPST0017")
      if (b.minArgs > 0) staticError(call(name, b.minArgs - 1), "XPST0017")
    }
  }
  test("an operator's name calls no function (XPST0017)") {
    Seq("eq(1, 2)", "and(1, 2)", "or(1, 2)", "to(1, 2)", "div(1, 2)", "idiv(1, 2)", "mod(1, 2)")
      .foreach(staticError(_, "XPST0017"))
  }
  test("grouping variable must be in scope") {
    staticError("for $x in 1 group by $zzz return 1")
  }

  test("arithmetic on non-numbers (XPTY0004)") {
    expectError("1 + \"a\"", "XPTY0004")(rumbleLocal.run)
    expectError("\"a\" * 2", "XPTY0004")(rumbleLocal.run)
    expectError("null + 1", "XPTY0004")(rumbleLocal.run)
  }

  test("division by zero (FOAR0001)") {
    expectError("1 div 0", "FOAR0001")(rumbleLocal.run)
    expectError("1 idiv 0", "FOAR0001")(rumbleLocal.run)
    expectError("1 mod 0", "FOAR0001")(rumbleLocal.run)
  }

  test("idiv of a NaN or infinite dividend, or a NaN divisor, is FOAR0002") {
    for (q <- Seq("(0e0 div 0) idiv 1", "(1e0 div 0) idiv 2", "(-1e0 div 0) idiv 2",
                  "1 idiv (0e0 div 0)", "1e300 idiv 1e-300"))
      expectError(q, "FOAR0002")(rumbleLocal.run)
  }

  test("a double idiv past the range of a Long is an integer, not a saturated Long") {
    assert(evalLocal("1e19 idiv 1") == "10000000000000000000")
    assert(evalLocal("-1e19 idiv 3") == "-3333333333333333504")
    assert(evalLocal("1 idiv (1e0 div 0)") == "0")
  }

  test("incomparable types in ordering comparisons (XPTY0004)") {
    expectError("1 lt \"a\"", "XPTY0004")(rumbleLocal.run)
    expectError("true gt 1", "XPTY0004")(rumbleLocal.run)
    expectError("1 eq \"1\"", "XPTY0004")(rumbleLocal.run)
  }

  test("comparison on structured items errors") {
    expectError("[1] eq [1]", "XPTY0004")(rumbleLocal.run)
    expectError("{} eq {}", "XPTY0004")(rumbleLocal.run)
  }

  test("value comparison requires singleton operands") {
    expectError("(1, 2) eq 1", "XPTY0004")(rumbleLocal.run)
  }

  test("EBV of a multi-atomic sequence errors (FORG0006)") {
    expectError("if ((1, 2)) then 1 else 2", "FORG0006")(rumbleLocal.run)
  }

  test("order by with mixed string/number keys errors (XPTY0004, §4.8)") {
    expectError("for $x in (1, \"a\") order by $x return $x", "XPTY0004")(rumbleLocal.run)
  }

  test("order by tolerates empty and null alongside one value type (§4.8)") {
    assert(evalLocal("for $x in (2, null, 1) order by $x return $x") == "null, 1, 2")
  }

  test("order by rejects array-valued sort keys") {
    expectError("for $x in ([1], [2]) order by $x return 1", "XPTY0004")(rumbleLocal.run)
  }

  test("order by rejects multi-item sort keys") {
    expectError("for $x in (1, 2) order by (1, 2) return $x", "XPTY0004")(rumbleLocal.run)
  }

  test("group by rejects non-atomic keys") {
    expectError("for $x in ([1], [2]) group by $k := $x return 1", "XPTY0004")(rumbleLocal.run)
  }

  test("two pairs with one key in an object constructor are JNDY0003") {
    both("""{"a": 1, "a": 2}""", Left("JNDY0003"))
    both("""for $x in parallelize((1, 2), 2) return {"a": $x, "b": 0, "a": $x}""", Left("JNDY0003"))
  }

  test("'to' requires integers") {
    expectError("1.5 to 3", "XPTY0004")(rumbleLocal.run)
  }

  test("string() on objects errors") {
    expectError("string({})", "XPTY0004")(rumbleLocal.run)
  }

  test("integer() of a non-numeric string is FORG0001") {
    expectError("integer(\"abc\")", "FORG0001")(rumbleLocal.run)
  }

  test("integer() of NaN or an infinity is FOCA0002; of \"NaN\" or \"Infinity\" FORG0001") {
    for (q <- Seq("integer(0e0 div 0e0)", "integer(1e0 div 0)", "integer(-1e0 div 0)"))
      expectError(q, "FOCA0002")(rumbleLocal.run)
    for (q <- Seq("integer(\"NaN\")", "integer(\"Infinity\")", "integer(\"-INF\")", "integer(\"\")"))
      expectError(q, "FORG0001")(rumbleLocal.run)
  }

  test("size() on non-arrays errors") {
    expectError("size(3)", "XPTY0004")(rumbleLocal.run)
  }

  private val goodLine = """{"a": 1}"""

  /** Every way to run a query over `path` raises JNDY0021: `run` and
    * `runCount`, on Spark and under `forceLocal`, for the bare read, a
    * navigation and FLWORs, two of which read only some keys of each object
    * on Spark. Returns the messages on Spark and locally. */
  private def invalidJson(path: String): (String, String) = {
    val queries = Seq(s"""json-file("$path")""", s"""json-file("$path").a""",
      s"""for $$o in json-file("$path") where $$o.a eq 1 return $$o""",
      s"""for $$o in json-file("$path") where $$o.a eq 1 return $$o.b""")
    for (q <- queries; r <- Seq(rumble, rumbleLocal)) {
      expectError(q, "JNDY0021")(r.run)
      expectError(q, "JNDY0021")(r.runCount)
    }
    (intercept[RumbleException](rumble.runCount(queries.head)).getMessage,
     intercept[RumbleException](rumbleLocal.runCount(queries.head)).getMessage)
  }

  test("an invalid json-file line raises JNDY0021 naming the file and the line") {
    val path = tempJsonFile("bad-json", Seq(goodLine, "", goodLine + "x", goodLine))
    val (onSpark, local) = invalidJson(path)
    assert(onSpark.contains(path) && onSpark.contains("byte offset 10"), onSpark)
    assert(local.contains(path) && local.contains("line 3"), local)
  }

  test("a line of only non-ASCII characters is not blank: it raises JNDY0021") {
    val path = tempJsonFile("non-ascii-line", Seq(goodLine, "é€", goodLine))
    val (onSpark, local) = invalidJson(path)
    assert(onSpark.contains("byte offset 9"), onSpark)
    assert(local.contains("line 2"), local)
  }

  test("an invalid value under a key the query does not read raises JNDY0021") {
    val path = tempJsonFile("bad-skipped-value",
      Seq(goodLine, """{"a": 1, "b": [1, tru]}""", """{"a": 1, "b": 01}"""))
    val (onSpark, local) = invalidJson(path)
    assert(onSpark.contains(path) && onSpark.contains("byte offset 9"), onSpark)
    assert(local.contains(path) && local.contains("line 2"), local)
  }

  test("a partitions argument that is not one positive integer is XPTY0004 on both paths") {
    val path = tempJsonFile("partitions", Seq(goodLine))
    for (p <- Seq("0", "-1", "\"a\"", "2.7", "()", "(1, 2)"); r <- Seq(rumble, rumbleLocal)) {
      expectError(s"parallelize((1, 2, 3), $p)", "XPTY0004")(r.run)
      expectError(s"""json-file("$path", $p)""", "XPTY0004")(r.run)
    }
    for (r <- Seq(rumble, rumbleLocal)) {
      assert(r.run("parallelize((1, 2, 3), 2)") == List(IntItem(1), IntItem(2), IntItem(3)))
      assert(r.run(s"""json-file("$path", 2)""").size == 1)
    }
  }

  test("a failing helper writes an unpaired surrogate in its message as its escape") {
    val q = "\"a\uD800\""
    val messages = Seq(intercept[TestFailedException](expectError(q, "FOAR0001")(rumbleLocal.run)),
                       intercept[TestFailedException](checkAgainstLocal(q))).map(_.getMessage)
    val escaped = messages.forall(m => m.contains("a\\ud800") && !m.exists(Character.isSurrogate))
    assert(escaped)
  }

  test("json-file on a missing local file errors") {
    assertThrows[Exception](rumbleLocal.run("json-file(\"/nonexistent/file.json\")"))
  }

  test("json-file on a missing path or a pattern that matches nothing raises FODC0002 naming it, " +
       "on Spark before any job") {
    val dir = tempJsonDir("no-match", Seq("a.json" -> Seq(goodLine), "_x" -> Seq(goodLine)))
    for (path <- Seq("/nonexistent/file.json", s"$dir/*.jsonl", s"$dir/_x", s"$dir/a.json,$dir/b.json")) {
      val queries = Seq(s"""json-file("$path")""",
        s"""for $$o in json-file("$path") group by $$k := $$o.a return $$k""")
      for (q <- queries; r <- Seq(rumble, rumbleLocal); run <- Seq[String => Any](r.run, r.runCount)) {
        val e = intercept[RumbleException](run(q))
        assert(e.code == "FODC0002", s"$q: ${e.code} ${e.getMessage}")
        assert(e.getMessage.contains(path.split(',').last), e.getMessage)
      }
      for (q <- queries)
        assert(jobsStarted(intercept[RumbleException](rumble.runCount(q))) == 0, q)
    }
  }
}
