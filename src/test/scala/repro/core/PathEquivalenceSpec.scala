package repro.core

import repro.core.runtime.flwor.{FlworIterator, FlworPath, GroupByClauseIterator}
import repro.datasets.HeterogeneousData

/** One answer per query: FLWOR shapes that mix narrow clauses with the
  * shuffling `group by` / `order by`, and `for … where … return` shapes
  * with no shuffle, each run on Spark (the tuple RDD, with DataFrames at
  * the shuffles) and under `forceLocal`. Both must return the same items,
  * or raise the same JSONiq error code. */
class PathEquivalenceSpec extends RumbleSpec {

  private val objs =
    """parallelize(({"a": 1, "b": "x", "c": 10}, {"a": 2, "b": "y", "c": 20}, {"a": 1, "b": "z"},
      |{"a": 3, "b": null, "c": 5}, {"a": 2, "b": "w", "c": 7}))""".stripMargin

  // bar: number | array | string; foobar: boolean | string | absent
  private lazy val fig5 = tempJsonFile("fig5-paths",
    (0 until 60).map(i => HeterogeneousData.fig5Line(i.toLong, 12L)))
  // country: string | array of strings | null | absent
  private lazy val fig7 = tempJsonFile("fig7-paths",
    (0 until 80).map(i => HeterogeneousData.fig7Line(i.toLong, 11L)))

  private val bound = GroupByClauseIterator.FlushBound

  /** (shape, query, whether the result order is defined). */
  private def shapes: Seq[(String, String, Boolean)] = Seq(
    ("let before group by",
     s"""for $$o in $objs let $$a := $$o.a group by $$k := $$a order by $$k
        |return {"k": $$k, "n": count($$o)}""".stripMargin, true),
    ("CountOnly and Materialize variables in one group by",
     s"""for $$o in $objs let $$c := $$o.c group by $$k := $$o.a order by $$k
        |return {"k": $$k, "n": count($$o), "s": sum($$c)}""".stripMargin, true),
    ("for after group by",
     s"""for $$o in $objs group by $$k := $$o.a for $$b in $$o.b order by $$k, $$b
        |return [$$k, $$b]""".stripMargin, true),
    ("let after group by reads the count",
     s"""for $$o in $objs group by $$k := $$o.a let $$n := count($$o)
        |order by $$n descending, $$k return [$$k, $$n]""".stripMargin, true),
    ("group by two keys, one of them sometimes empty",
     s"""for $$o in $objs group by $$a := $$o.a, $$c := $$o.c order by $$a, $$c
        |return [$$a, $$c]""".stripMargin, true),
    ("count after let",
     """for $x in parallelize(1 to 12) let $y := $x * 2 count $c where $c mod 3 eq 0
       |return [$c, $y]""".stripMargin, true),
    ("count after order by",
     s"""for $$o in $objs order by $$o.a descending, $$o.b count $$c
        |return {"c": $$c, "b": $$o.b}""".stripMargin, true),
    ("order by empty greatest",
     s"for $$o in $objs order by $$o.c empty greatest return $$o.b", true),
    ("order by empty least, descending",
     s"for $$o in $objs order by $$o.c descending empty least return $$o.b", true),
    ("order by with nulls, descending",
     s"for $$o in $objs order by $$o.b descending return $$o.a", true),
    ("order key on a variable that return does not read",
     s"for $$o in $objs let $$k := $$o.c order by $$k descending return $$o.b", true),
    ("where after order by",
     s"for $$o in $objs order by $$o.a, $$o.b where $$o.a ge 2 return $$o.b", true),
    ("order by, then group by",
     s"""for $$o in $objs order by $$o.c group by $$k := $$o.a order by $$k
        |return {"k": $$k, "n": count($$o)}""".stripMargin, true),
    ("for after order by",
     "for $x in parallelize((2, 3, 1)) order by $x for $y in 1 to $x return [$x, $y]", true),
    ("order by a rebound variable",
     "for $x in parallelize(1 to 4) let $x := 5 - $x order by $x return $x", true),
    // the shuffled rows name their cells by position, not by variable
    ("$a-b and $a_b both read after an order by",
     """for $a-b in parallelize(1 to 5) let $a_b := 10 - $a-b order by $a_b
       |return [$a-b, $a_b]""".stripMargin, true),
    ("$a-b and $a_b both read after a group by",
     """for $a-b in parallelize(1 to 8, 4) let $a_b := $a-b mod 3 group by $a_b order by $a_b
       |return {"k": $a_b, "n": count($a-b), "s": sum($a-b)}""".stripMargin, true),
    ("a let rebinds $x, then an order by reads the old and the new value",
     """for $x in parallelize(1 to 6) let $y := $x let $x := $x * 10
       |order by $y descending return [$x, $y]""".stripMargin, true),
    ("a let rebinds $x, then a group by on it",
     """for $x in parallelize(1 to 8, 4) let $x := $x mod 3 group by $x order by $x
       |return {"k": $x}""".stripMargin, true),
    ("a let rebinds $x, then a group by that counts and sums it",
     """for $x in parallelize(1 to 8, 4) let $k := $x mod 2 let $x := $x * 10
       |group by $k order by $k return {"k": $k, "n": count($x), "s": sum($x)}""".stripMargin,
     true),
    ("two fors",
     "for $x in parallelize(1 to 3) for $y in $x to 3 return [$x, $y]", true),
    ("nested FLWOR in a let",
     """for $x in parallelize(1 to 5)
       |let $s := (for $y in 1 to $x where $y mod 2 eq 1 return $y * 10)
       |return sum($s)""".stripMargin, true),
    ("order by over an RDD with one partition",
     "for $x in parallelize((5, 3, 9, 1, 7), 1) order by $x descending return $x", true),
    ("an empty stream through order by and group by",
     """for $x in parallelize(1 to 4) where $x gt 10 group by $k := $x mod 2 order by $k
       |return $k""".stripMargin, true),
    ("HeterogeneousData: boolean, string and empty group keys",
     s"""for $$o in json-file("$fig5") group by $$k := $$o.foobar
        |return {"k": $$k, "n": count($$o)}""".stripMargin, false),
    ("HeterogeneousData: order by a string key after a let",
     s"""for $$o in json-file("$fig5") let $$f := $$o.foo where $$o.bar[[1]] ge 5
        |order by $$f descending return $$f""".stripMargin, true),
    ("HeterogeneousData: normalized Fig. 7 keys, grouped then sorted",
     s"""for $$o in json-file("$fig7")
        |let $$c := if (exists($$o.country[])) then $$o.country[[1]] else $$o.country
        |group by $$k := $$c
        |order by $$k empty greatest
        |return {"k": $$k, "n": count($$o), "v": sum($$o.value)}""".stripMargin, true),
    // group by: each partition folds its tuples into partial groups that
    // the GROUP BY merges
    ("group by a key whose tuples span several partitions",
     """for $x in parallelize(1 to 40, 8) group by $k := $x mod 3 order by $k
       |return {"k": $k, "n": count($x)}""".stripMargin, true),
    ("CountOnly, Materialize and Drop in one group by over 8 partitions",
     """for $x in parallelize(1 to 40, 8) let $y := $x * 2 let $z := $x + 1
       |group by $k := $x mod 4 order by $k
       |return {"k": $k, "n": count($x), "y": [for $v in $y order by $v return $v]}""".stripMargin,
     true),
    ("group by two keys over 8 partitions",
     """for $x in parallelize(1 to 40, 8) group by $a := $x mod 2, $b := $x mod 3
       |order by $a, $b return {"a": $a, "b": $b, "n": count($x)}""".stripMargin, true),
    ("let before group by over 8 partitions",
     """for $x in parallelize(1 to 40, 8) let $k := $x mod 5 let $s := $x * $x
       |group by $k order by $k return {"k": $k, "s": sum($s)}""".stripMargin, true),
    ("group by an empty-sequence and a null key",
     """for $o in parallelize(({"a": 1}, {"a": null}, {}, {"a": 1}, {"a": null}, {}, {}), 3)
       |group by $k := $o.a order by $k return {"k": [$k], "n": count($o)}""".stripMargin, true),
    ("group by more distinct keys in one partition than a partition's fold holds",
     s"""for $$x in parallelize(1 to ${bound + 4464}, 1) group by $$k := $$x mod ${bound + 464}
        |return {"k": $$k, "n": count($$x)}""".stripMargin, false),
    // errors: the same code on both paths
    ("HeterogeneousData: mixed boolean/string order key is XPTY0004",
     s"""for $$o in json-file("$fig5") order by $$o.foobar return $$o.foo""", true),
    ("HeterogeneousData: raw Fig. 7 array keys are XPTY0004",
     s"""for $$o in json-file("$fig7") group by $$k := $$o.country
        |return count($$o)""".stripMargin, false),
    ("FOAR0001 in a let",
     "for $x in parallelize(0 to 3) let $y := 1 div $x return $y", true),
    ("FOAR0001 in a group key",
     "for $x in parallelize(0 to 3) group by $k := 1 div $x return $k", false),
    ("FORG0006 from the EBV of a where after a let",
     "for $x in parallelize(1 to 3) let $s := ($x, $x) where $s return $x", true),
  )

  for ((shape, q, ordered) <- shapes)
    test(s"Spark and local agree: $shape") {
      checkAgainstLocal(q, ordered)
    }

  /** `for … where … return` with no shuffle: the `for` mapped to tuples,
    * each `where` filtering the partitions, `return` flat-mapped; and
    * `count(...)` over each, which counts the tuples when the return is
    * one item per tuple. */
  private def narrowShapes: Seq[(String, String)] = Seq(
    ("for, where, where, return",
     "for $x in parallelize(1 to 60, 4) where $x mod 2 eq 0 where $x mod 3 eq 0 return $x"),
    ("a multi-item return",
     "for $x in parallelize(1 to 9, 3) where $x ge 4 return ($x, $x)"),
    ("an empty return",
     "for $x in parallelize(1 to 9, 3) where $x ge 4 return ()"),
    ("HeterogeneousData: an object return over json-file",
     s"""for $$o in json-file("$fig5") where $$o.bar[[1]] ge 5 return {"f": $$o.foo}"""),
    ("string positions in code points, in a where and a return",
     """for $s in parallelize(("😀x", "a😀b", "ab"), 2) where string-length($s) eq 2
       |return substring($s, 2)""".stripMargin),
    ("FOAR0001 in a where",
     "for $x in parallelize(0 to 3) where 1 div $x gt 0 return $x"),
  )

  for ((shape, q) <- narrowShapes) {
    test(s"Spark and local agree: $shape") {
      assert(flworPath(q) == FlworPath.Tuples)
      checkAgainstLocal(q)
    }
    test(s"Spark and local agree on count(...): $shape") {
      val c = s"count($q)"
      assert(outcome(rumble, c) == outcome(rumbleLocal, c), c)
    }
  }

  // objects with the kept key present, missing, repeated, written with an
  // escape and past the 12 fields a lookup scans; and lines that are not
  // objects
  private lazy val messy = tempJsonFile("projection-paths", Seq(
    """{"a": 1, "b": "x", "c": [1, 2], "d": {"a": 9}}""",
    """{"a": 2, "b": "y", "a": 3}""",
    "{\"a\": 4, \"gu\\u0065ss\": \"g\", \"b\": \"z\", \"\\u0061\": 10}",
    """{"b": "no a", "c": []}""",
    (1 to 14).map(i => s""""k$i": $i""").mkString("""{"a": 5, """, ", ", """, "a": 6}"""),
    """[1, {"a": 7}]""", "\"a string\"", "8", "{}"))

  /** (shape, query, the keys `run` builds of each object: `None` whole). */
  private def projections: Seq[(String, String, Option[Set[String]])] = Seq(
    ("$o.a in a where, $o.b in the return",
     s"""for $$o in json-file("$messy") where $$o.a ge 2 return $$o.b""", Some(Set("a", "b"))),
    ("a missing kept key",
     s"""for $$o in json-file("$messy") return [$$o.a]""", Some(Set("a"))),
    ("a repeated kept key, also in an object wider than 12 fields",
     s"""for $$o in json-file("$messy") where exists($$o.a) return $$o.a""", Some(Set("a"))),
    ("kept keys written with escapes",
     s"""for $$o in json-file("$messy") return [$$o.a, $$o.guess]""", Some(Set("a", "guess"))),
    ("count($o) reads no key; lines that are not objects",
     s"""for $$o in json-file("$messy") group by $$k := $$o.b order by $$k
        |return {"k": $$k, "n": count($$o)}""".stripMargin, Some(Set("b"))),
    ("a second for binding reads $o.c",
     s"""for $$o in json-file("$messy"), $$p in $$o.c[] return [$$o.a, $$p]""",
     Some(Set("a", "c"))),
    ("a nested FLWOR that does not rebind $o",
     s"""for $$o in json-file("$messy") let $$x := (for $$y in $$o.c[] return $$y * 2)
        |return [$$x]""".stripMargin, Some(Set("c"))),
    // each use below may read the whole object
    ("a bare $o", s"""for $$o in json-file("$messy") where $$o.a eq 1 return $$o""", None),
    ("$o[]", s"""for $$o in json-file("$messy") return $$o[]""", None),
    ("$o[[i]]", s"""for $$o in json-file("$messy") return $$o[[2]]""", None),
    ("$o[p]", s"""for $$o in json-file("$messy") return $$o[exists($$$$.a)].b""", None),
    ("$o as the argument of another function",
     s"""for $$o in json-file("$messy") where exists($$o.a) return [keys($$o)]""", None),
    ("a nested FLWOR that rebinds $o",
     s"""for $$o in json-file("$messy") let $$x := (for $$o in $$o.c[] return $$o)
        |return [$$x]""".stripMargin, None),
    ("a later clause that rebinds $o",
     s"""for $$o in json-file("$messy") let $$o := $$o.a return $$o""", None),
  ) ++ wrappers.map { case (shape, wrap, _) =>
    (s"$$o.a inside $shape", s"""for $$o in json-file("$messy") return ${wrap("$o.a")}""", Some(Set("a")))
  }

  /** One row per expression shape with children, and per clause shape with
    * expressions in a nested FLWOR: (shape, the shape wrapped around an
    * expression `x`, the items it returns in [[grouped]] when `x` is
    * `count($o)`). The usage analysis must find `$o.a` inside each shape,
    * and the group by's rewrite of `count($o)` (§4.7) must reach it. */
  private def wrappers: Seq[(String, String => String, List[String])] = Seq(
    ("a comma", x => s"($x, 0)", List("2", "0", "1", "0")),
    ("a range", x => s"1 to $x", List("1", "2", "1")),
    ("arithmetic", x => s"$x * 10", List("20", "10")),
    ("a unary minus", x => s"-$x", List("-2", "-1")),
    ("a comparison", x => s"$x eq 2", List("true", "false")),
    ("an and", x => s"$x and true", List("true", "true")),
    ("an or", x => s"false or $x", List("true", "true")),
    ("a string concatenation", x => s"""$x || "!"""", List("\"2!\"", "\"1!\"")),
    ("an if", x => s"if ($x) then $x else -1", List("2", "1")),
    ("an object constructor", x => s"""{"n": $x}""", List("""{"n" : 2}""", """{"n" : 1}""")),
    ("an array constructor", x => s"[$x]", List("[2]", "[1]")),
    ("an object lookup", x => s"""{"n": $x}.n""", List("2", "1")),
    ("an array unboxing", x => s"[$x][]", List("2", "1")),
    ("an array lookup", x => s"[$x][[1]]", List("2", "1")),
    ("a predicate", x => s"$x[$$$$ gt 0]", List("2", "1")),
    ("a function call", x => s"abs($x)", List("2", "1")),
    ("a nested FLWOR's for", x => s"for $$y in $x return $$y", List("2", "1")),
    ("a nested FLWOR's let", x => s"let $$y := $x return $$y", List("2", "1")),
    ("a nested FLWOR's where", x => s"for $$y in (1, 2) where $$y le $x return $$y", List("1", "2", "1")),
    ("a nested FLWOR's group by", x => s"for $$y in 1 group by $$g := $x return $$g", List("2", "1")),
    ("a nested FLWOR's order by", x => s"for $$y in (1, 2, 3) order by abs($$y - $x) return $$y",
     List("2", "1", "3", "1", "2", "3")),
    ("a nested FLWOR's return", x => s"for $$y in 1 return $x", List("2", "1")),
  )

  /** A group of two objects, then a group of one, with `x` as the return. */
  private def grouped(x: String): String =
    s"""for $$o in parallelize(({"a": 1}, {"a": 2}, {"a": 1}), 2) group by $$k := $$o.a
       |order by $$k return $x""".stripMargin

  for ((shape, wrap, want) <- wrappers)
    test(s"Spark and local agree: count($$o) after a group by, inside $shape") {
      both(grouped(wrap("count($o)")), Right(want))
    }

  for ((shape, q, keys) <- projections) {
    test(s"Spark and local agree on a projected json-file read: $shape") {
      assert(rumble.compile(q).asInstanceOf[FlworIterator].keptKeys(counting = false) == keys)
      checkAgainstLocal(q)
      val c = s"count($q)"
      assert(outcome(rumble, c) == outcome(rumbleLocal, c), c)
    }
  }

  /** Predicates that select by position for some items or all of them,
    * and a boolean one, over several partitions. */
  private def predicates: Seq[(String, String)] = Seq(
    ("a positional predicate", "parallelize((5, 6, 7), 3)[2]"),
    ("a boolean predicate", "parallelize((5, 6, 7), 3)[$$ eq 6]"),
    ("a predicate numeric for some items and boolean for others",
     "parallelize((3, 1, 4, 1, 5, 9, 2, 6), 3)[if ($$ gt 2) then 3 else $$ eq 1]"),
    ("a positional predicate past the end", "parallelize((5, 6, 7), 2)[4]"),
  )

  for ((shape, q) <- predicates)
    test(s"Spark and local agree: $shape") {
      checkAgainstLocal(q)
    }

  test("positional predicates select the same items on Spark as locally") {
    assert(evalSpark(predicates.head._2) == "6")
    assert(evalSpark(predicates(2)._2) == "1, 4, 1")
  }

  test("Spark and local agree: integer overflow promotes to decimal, in arithmetic and in sum") {
    val max = Long.MaxValue
    for ((q, expected) <- Seq(
      s"for $$x in parallelize(($max, 1, -5), 3) return $$x + 1" ->
        "9223372036854775808, 2, -4",
      s"for $$x in parallelize(($max, 2), 2) return ($$x * 2, -$$x - 2)" ->
        "18446744073709551614, -9223372036854775809, 4, -4",
      s"sum(parallelize(($max, 1, 1, 1), 4))" -> "9223372036854775810",
      s"sum(parallelize(($max, 1, -1, $max, -$max), 3))" -> "9223372036854775807",
      s"sum(parallelize(($max, 1, 0.5), 2))" -> "9223372036854775808.5",
      s"sum(parallelize((-$max, -2), 2))" -> "-9223372036854775809")) {
      assert(outcome(rumble, q) == outcome(rumbleLocal, q), q)
      assert(evalSpark(q) == expected, q)
    }
  }

  test("Spark and local agree: a double idiv truncates to an integer of any size") {
    val q = """for $x in parallelize((1e19, 1.180591620717411303424e21, 7.5e0, -7.5e0, -1e19), 3)
              |return ($x idiv 1, $x idiv 2, $x idiv (1e0 div 0))""".stripMargin
    assert(outcome(rumble, q) == outcome(rumbleLocal, q), q)
    assert(evalSpark(q) == Seq(
      "10000000000000000000, 5000000000000000000, 0",
      "1180591620717411303424, 590295810358705651712, 0",
      "7, 3, 0", "-7, -3, 0",
      "-10000000000000000000, -5000000000000000000, 0").mkString(", "))
  }

  test("Spark and local agree: idiv of a NaN or infinite dividend is FOAR0002") {
    for (q <- Seq("for $x in parallelize((1e0, 0e0, -1e0), 3) return ($x div 0) idiv 1",
                  "for $x in parallelize((1e300, 2e0), 2) return $x idiv 1e-300"))
      assert(outcome(rumble, q) == Left("FOAR0002") && outcome(rumbleLocal, q) == Left("FOAR0002"), q)
  }

  test("Spark and local agree: every operator inside a where") {
    val objs = """parallelize(({"n": 10, "s": "x"}, {"n": 8, "s": "y"}, {"n": 2}), 3)"""
    for ((where, wanted) <- Seq(
      // chaining levels associate to the left
      "$o.n - 4 - 3 eq 3"                    -> Right(List("10")),
      "$o.n div 2 div 2 eq 2"                -> Right(List("8")),
      "$o.s || \"-\" || $o.n eq \"x-10\""  -> Right(List("10")),
      "$o.n eq 10 or $o.n eq 8 and $o.n lt 3" -> Right(List("10")),
      // each operator; an empty operand of || reads as ""
      "$o.s || $o.n eq \"2\""                -> Right(List("2")),
      "$o.n + 1 ge 9 and $o.n le 8"          -> Right(List("8")),
      "$o.n * 2 eq 20"                       -> Right(List("10")),
      "$o.n idiv 4 eq 2"                     -> Right(List("10", "8")),
      "$o.n mod 4 eq 2"                      -> Right(List("10", "2")),
      "-$o.n lt -5"                          -> Right(List("10", "8")),
      "count(1 to $o.n) eq 8"                -> Right(List("8")),
      "$o.n eq 8"  -> Right(List("8")),        "$o.n = 8"  -> Right(List("8")),
      "$o.n ne 8"  -> Right(List("10", "2")),  "$o.n != 8" -> Right(List("10", "2")),
      "$o.n lt 8"  -> Right(List("2")),        "$o.n < 8"  -> Right(List("2")),
      "$o.n le 8"  -> Right(List("8", "2")),   "$o.n <= 8" -> Right(List("8", "2")),
      "$o.n gt 8"  -> Right(List("10")),       "$o.n > 8"  -> Right(List("10")),
      "$o.n ge 8"  -> Right(List("10", "8")),  "$o.n >= 8" -> Right(List("10", "8")),
      // an empty operand gives the empty sequence
      "$o.m + 1"                             -> Right(Nil),
      "count(1 to $o.m) eq 0"                -> Right(List("10", "8", "2")),
      "not($o.m eq 1)"                       -> Right(List("10", "8", "2")),
      // and, or read their right operand only when they need it
      "$o.n lt 5 and $o.s + 1 eq 2"          -> Right(Nil),
      "$o.n gt 5 or $o.s + 1 eq 2"           -> Right(List("10", "8")),
      // errors
      "$o.s + 1 eq 2"                        -> Left("XPTY0004"),
      "-$o.s"                                -> Left("XPTY0004"),
      "$o.s lt 1"                            -> Left("XPTY0004"),
      "count(1 to $o.s) eq 0"                -> Left("XPTY0004"),
      "$o.n idiv ($o.n - $o.n) eq 0"         -> Left("FOAR0001"),
    )) both(s"for $$o in $objs where $where return $$o.n", wanted)
  }

  // twelve part files written in shuffled order, so that the directory's
  // own order is not the order of their names
  private lazy val shuffledDir = tempJsonDir("shuffled-parts",
    new scala.util.Random(7).shuffle((0 until 12).toList).map { i =>
      f"part-$i%05d" -> Seq(s"""{"f": ${i * 10}}""", s"""{"f": ${i * 10 + 1}}""")
    })

  test("json-file over a directory reads its files in the order of their paths, on Spark and locally") {
    val q = s"""for $$o in json-file("$shuffledDir") return $$o.f"""
    checkAgainstLocal(q)
    assert(evalSpark(q) == (0 until 12).flatMap(i => Seq(i * 10, i * 10 + 1)).mkString(", "))
  }

  test("json-file over a directory: [1] is the first file's first item, on Spark and locally") {
    val q = s"""json-file("$shuffledDir")[1]"""
    assert(evalSpark(q) == """{"f" : 0}""")
    assert(evalLocal(q) == """{"f" : 0}""")
  }

  test("json-file over a directory reads every file not named as hidden, on Spark and locally") {
    val dir = tempJsonDir("visible-files", Seq("b.json" -> Seq("""{"f": 2}"""),
      "_x" -> Seq("""{"f": -1}"""), ".y" -> Seq("""{"f": -2}"""), "a.json" -> Seq("""{"f": 1}""")))
    val q = s"""json-file("$dir").f"""
    assert(evalSpark(q) == "1, 2")
    assert(evalLocal(q) == "1, 2")
  }

  test("json-file over a directory does not read its subdirectories, on Spark and locally") {
    val dir = tempJsonDir("with-subdir", Seq("sub/c.json" -> Seq("""{"f": 3}"""),
      "a.json" -> Seq("""{"f": 1}""")))
    val q = s"""for $$o in json-file("$dir") return $$o.f"""
    checkAgainstLocal(q)
    assert(evalSpark(q) == "1")
  }

  test("the table's error rows raise errors and one row is empty") {
    val outcomes = shapes.map { case (_, q, _) => outcome(rumbleLocal, q) }
    assert(outcomes.count(_.isLeft) == 5)
    assert(outcomes.count(_ == Right(Nil)) == 1)
  }
}
