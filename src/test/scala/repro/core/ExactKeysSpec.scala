package repro.core

/** Group by, order by, `distinct-values` and value comparison see exact
  * values: integers past 2^53 and past `Long`, decimals past a double's
  * precision, and strings in code point order. Each query runs on Spark
  * (over `parallelize`) and under `forceLocal`, and both must give the
  * wanted answer. In the queries 2^53 = 9007199254740992. */
class ExactKeysSpec extends RumbleSpec {

  private def items(xs: String*) = Right(xs.toList)

  private val big = "(9007199254740993, 9007199254740992, 9007199254740993)"
  private val decimals = "(12345678901234567891.0, 12345678901234567890.0, 12345678901234567892.0)"

  test("group by keeps 2^53 and 2^53 + 1 apart") {
    both(s"for $$x in parallelize($big) group by $$k := $$x return count($$x)",
         items("1", "2"), ordered = false)
  }

  test("order by sorts integers past 2^53") {
    both(s"for $$x in parallelize($big) order by $$x return $$x",
         items("9007199254740992", "9007199254740993", "9007199254740993"))
    both(s"for $$x in parallelize($big) order by $$x descending return $$x",
         items("9007199254740993", "9007199254740993", "9007199254740992"))
  }

  test("order by and group by see every digit of a decimal") {
    both(s"for $$x in parallelize($decimals) order by $$x return $$x",
         items("12345678901234567890.0", "12345678901234567891.0", "12345678901234567892.0"))
    both(s"for $$x in parallelize($decimals) group by $$k := $$x return count($$x)",
         items("1", "1", "1"))
  }

  test("distinct-values keeps 2^53 and 2^53 + 1 apart") {
    both("distinct-values(parallelize((9007199254740993, 9007199254740992)))",
         items("9007199254740992", "9007199254740993"), ordered = false)
  }

  test("value comparison is exact past Long and past a double's precision") {
    both("for $x in parallelize(9223372036854775807 + 1) return $x gt 9223372036854775807",
         items("true"))
    both("min(parallelize((9223372036854775807 + 1, 9223372036854775807)))",
         items("9223372036854775807"))
    both("for $x in parallelize(12345678901234567890.0) return $x eq 12345678901234567891.0",
         items("false"))
  }

  test("strings order by code point: U+FFFD before U+1F600") {
    both("for $s in parallelize((\"\uFFFD\", \"\uD83D\uDE00\")) order by $s return $s",
         items("\"\uFFFD\"", "\"\uD83D\uDE00\""))
    both("for $s in parallelize(\"\uFFFD\") return $s lt \"\uD83D\uDE00\"", items("true"))
  }

  test("distinct-values of objects is XPTY0004") {
    both("""distinct-values(parallelize(({"a": 1}, {"a": 1})))""", Left("XPTY0004"))
  }

  test("unchanged: 1, 1.0 and 1e0 are one value; 0.1 eq 0.1e0; mixed sort keys fail") {
    both("count(distinct-values(parallelize((1, 1.0))))", items("1"))
    both("for $x in parallelize((1, 1.0, 1e0)) group by $k := $x return count($x)", items("3"))
    both("for $x in parallelize(1) return ($x eq 1e0, 0.1 eq 0.1e0)", items("true", "true"))
    both("for $x in parallelize((1, \"a\")) order by $x return $x", Left("XPTY0004"))
  }
}
