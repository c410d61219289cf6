package repro.core

import repro.core.model._
import repro.core.runtime.{DynamicContext, RumbleConf}
import repro.core.runtime.flwor.{FlworIterator, FlworPath, GroupByClauseIterator,
  OrderByClauseIterator}
import repro.bench.RumbleQueries
import repro.datasets.ConfusionData
import org.apache.spark.sql.catalyst.expressions.ScalaUDF
import org.apache.spark.sql.catalyst.plans.physical.RangePartitioning
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec

/** FLWOR execution on Spark (paper §4.3–4.10, §5.8): narrow clauses over an
  * RDD of live tuples, `group by` and `order by` over the paper's
  * DataFrame encoding. Each query is checked to actually run on Spark
  * (isRDD on the root FLWOR: the tuple RDD or the DataFrame path) and to
  * agree with the forced-local engine. */
class DataFrameFlworSpec extends RumbleSpec {

  test("initial for over an RDD creates the one-column DataFrame (§4.4)") {
    checkAgainstLocal("for $x in parallelize(1 to 50) return $x")
  }

  test("for + where on the DataFrame path (§4.6)") {
    checkAgainstLocal("for $x in parallelize(1 to 100) where $x mod 10 eq 0 return $x")
  }

  test("for + where + where on the Fig. 9 RDD path") {
    val q = "for $x in parallelize(1 to 60) where $x mod 2 eq 0 where $x mod 3 eq 0 return $x"
    assert(flworPath(q) == FlworPath.Tuples)
    checkAgainstLocal(q)
  }

  test("two-binding for on the DataFrame path") {
    val q = "for $x in parallelize(1 to 4), $y in 1 to $x where $x + $y gt 4 return [$x, $y]"
    assert(flworPath(q) == FlworPath.Tuples)
    checkAgainstLocal(q)
  }

  test("let as extended projection (§4.5)") {
    checkAgainstLocal(
      "for $x in parallelize(1 to 10) let $y := $x * $x where $y ge 50 return $y")
  }

  test("non-initial for explodes (§4.4)") {
    checkAgainstLocal(
      "for $x in parallelize(1 to 3) for $y in 1 to $x return 10 * $x + $y")
  }

  test("non-initial for over an empty sequence drops the tuple") {
    checkAgainstLocal(
      "for $x in parallelize((1, 2, 3)) for $y in $x[$$ ge 2] return $y")
  }

  test("variable redeclaration drops the shadowed column (§4.5)") {
    checkAgainstLocal(
      "for $x in parallelize(1 to 5) let $x := $x * 2 return $x")
  }

  test("count clause via zipWithIndex (§4.9)") {
    checkAgainstLocal("for $x in parallelize((\"a\", \"b\", \"c\")) count $c return $c")
    checkAgainstLocal(
      "for $x in parallelize(20 to 40) where $x mod 2 eq 0 count $c return $c * 100 + $x")
  }

  test("order by on the DataFrame path (§4.8)") {
    checkAgainstLocal("for $x in parallelize((3, 1, 2, 5, 4)) order by $x return $x")
    checkAgainstLocal(
      "for $x in parallelize((3, 1, 2)) order by $x descending return $x")
  }

  test("order by strings, multiple keys, mixed directions") {
    checkAgainstLocal(
      """for $x in parallelize(({"a": "x", "b": 2}, {"a": "x", "b": 1}, {"a": "w", "b": 9}))
        |order by $x.a ascending, $x.b descending
        |return $x.b""".stripMargin)
  }

  test("order by with empty keys: least by default, greatest on request") {
    checkAgainstLocal(
      """for $x in parallelize(({"k": 2}, {}, {"k": 1}))
        |order by $x.k
        |return size([$x.k])""".stripMargin)
    checkAgainstLocal(
      """for $x in parallelize(({"k": 2}, {}, {"k": 1}))
        |order by $x.k empty greatest
        |return size([$x.k])""".stripMargin)
  }

  test("order by null sorts below values (DataFrame path)") {
    checkAgainstLocal(
      "for $x in parallelize((2, null, 1)) order by $x return $x")
  }

  test("order by type check fails on mixed types (first pass, §4.8)") {
    expectError("for $x in parallelize((1, \"a\")) order by $x return $x",
      "XPTY0004")(rumble.run)
  }

  test("group by with count aggregation (§4.7 COUNT pushdown)") {
    checkAgainstLocal(
      """for $x in parallelize((1, 2, 1, 3, 1, 2))
        |group by $k := $x
        |order by $k
        |return {"k": $k, "n": count($x)}""".stripMargin)
  }

  test("group by materializing the non-grouping variable (§4.7 SEQUENCE)") {
    checkAgainstLocal(
      """for $x in parallelize(({"a": 1, "b": 10}, {"a": 2, "b": 20}, {"a": 1, "b": 30}))
        |group by $k := $x.a
        |order by $k
        |return {"k": $k, "s": sum($x.b)}""".stripMargin)
  }

  test("group by materializing a string over 64 KiB") {
    val big = "x" * 70000
    checkAgainstLocal(
      s"""for $$x in parallelize(({"k": 1, "s": "$big"}, {"k": 1, "s": "é"}, {"k": 2, "s": "z"}))
         |group by $$k := $$x.k
         |order by $$k
         |return {"k": $$k, "s": $$x.s}""".stripMargin)
  }

  test("group by dropping an unused variable (§4.7)") {
    checkAgainstLocal(
      """for $x in parallelize((5, 6, 5))
        |group by $k := $x
        |order by $k
        |return $k""".stripMargin)
  }

  test("group by heterogeneous keys (strings, numbers, null, empty)") {
    checkAgainstLocal(
      """for $x in parallelize(({"c": "US"}, {"c": 1}, {"c": "US"}, {"c": null}, {}))
        |group by $k := $x.c
        |return {"n": count($x)}""".stripMargin, ordered = false)
  }

  test("group by multiple keys") {
    checkAgainstLocal(
      """for $x in parallelize(({"a": 1, "b": "u"}, {"a": 1, "b": "v"}, {"a": 1, "b": "u"}))
        |group by $ka := $x.a, $kb := $x.b
        |order by $kb
        |return {"a": $ka, "b": $kb, "n": count($x)}""".stripMargin)
  }

  test("integer 1 and double 1.0 group together (value-based key encoding)") {
    checkAgainstLocal(
      """for $x in parallelize((1, 1.0, 2))
        |group by $k := $x
        |order by $k
        |return count($x)""".stripMargin)
  }

  test("return constructing objects (§4.10)") {
    checkAgainstLocal(
      """for $x in parallelize(1 to 5)
        |return {"v": $x, "sq": $x * $x}""".stripMargin)
  }

  test("FLWOR result feeds parent expressions as an RDD (§4.10)") {
    assert(evalSpark(
      "count(for $x in parallelize(1 to 500) where $x mod 2 eq 0 return $x)") == "250")
  }

  test("group then order then count clause, all on DataFrames") {
    checkAgainstLocal(
      """for $x in parallelize((3, 1, 3, 2, 3, 2))
        |group by $k := $x
        |order by count($x) descending, $k ascending
        |count $rank
        |return {"rank": $rank, "k": $k}""".stripMargin)
  }

  test("json-file FLWOR end-to-end over a file") {
    val path = tempJsonFile("df-flwor", Seq(
      """{"guess": "French", "target": "French", "country": "AU"}""",
      """{"guess": "German", "target": "Danish", "country": "US"}""",
      """{"guess": "Swedish", "target": "Swedish", "country": "AU"}"""))
    val q =
      s"""for $$i in json-file("$path")
         |where $$i.guess eq $$i.target
         |return $$i.country""".stripMargin
    assert(rumble.run(q) == List(StringItem("AU"), StringItem("AU")))
    assert(rumble.runCount(q) == 2)
  }

  test("initial let stays local (paper §4.5)") {
    val it = rumble.compile("let $x := parallelize(1 to 3) return count($x)")
    assert(!it.isRDD(DynamicContext.root(RumbleConf())))
    assert(flworPath("let $x := parallelize(1 to 3) return count($x)") == FlworPath.Local)
    assert(evalSpark("let $x := parallelize(1 to 3) return count($x)") == "3")
    // a later for over an RDD source is collected, not run on Spark
    val q = "let $n := 3 for $x in parallelize(1 to $n) where $x ge 2 return $x"
    assert(flworPath(q) == FlworPath.Local)
    assert(evalSpark(q) == "2, 3")
  }

  test("nested FLWOR inside a closure runs through the local API (§5.6)") {
    checkAgainstLocal(
      """for $x in parallelize(1 to 4)
        |let $s := sum(for $y in 1 to $x return $y * $y)
        |return $s""".stripMargin)
  }

  test("writeJsonLines writes the RDD result back in parallel (§5.4)") {
    val out = new java.io.File(
      java.nio.file.Files.createTempDirectory("rumble-out").toFile, "res").getAbsolutePath
    rumble.writeJsonLines(
      "for $x in parallelize(1 to 10) where $x gt 7 return {\"v\": $x}", out)
    val back = rumble.run(s"""json-file("$out").v""")
    assert(back.map(_.numericDouble).toSet == Set(8.0, 9.0, 10.0))
  }

  test("writeJsonLines writes an unpaired surrogate as its escape, so it reads back") {
    val out = new java.io.File(
      java.nio.file.Files.createTempDirectory("rumble-out").toFile, "res").getAbsolutePath
    val q = "for $s in parallelize((\"a\\ud83db\", \"\\ude00\", \"😀\"), 2) return {\"s\": $s}"
    rumble.writeJsonLines(q, out)
    assert(ser(rumble.run(s"""json-file("$out")""")) == ser(rumble.run(q)))
    assert(rumble.run(s"""json-file("$out").s""").head == StringItem("a\ud83db"))
  }

  // ------------------------------------------------------- path pins

  private lazy val confusionFile = tempJsonFile("paths", Seq(
    """{"guess": "French", "target": "French", "country": "AU", "date": "2013-08-19"}""",
    """{"guess": "German", "target": "Danish", "country": "US", "date": "2013-08-20"}"""))

  test("path pin: the paper's filter takes the Fig. 9 RDD path") {
    assert(flworPath(RumbleQueries.filter(confusionFile)) == FlworPath.Tuples)
    assert(flworPath(RumbleQueries.filter(confusionFile),
      DynamicContext.root(RumbleConf(forceLocal = true))) == FlworPath.Local)
  }

  test("path pin: group, sort and let-where take the DataFrame path") {
    val letWhere =
      s"""for $$i in json-file("$confusionFile")
         |let $$g := $$i.guess
         |let $$t := $$i.target
         |where $$g eq $$t
         |return $$i""".stripMargin
    // group and sort shuffle, so they encode their tuples into DataFrames;
    // let-where has no shuffle and stays an RDD of live tuples
    Seq(RumbleQueries.group(confusionFile), RumbleQueries.sort(confusionFile))
      .foreach(q => assert(flworPath(q) == FlworPath.DataFrame, q))
    assert(flworPath(letWhere) == FlworPath.Tuples)
    // the group's $i is only counted (§4.7 CountOnly)
    val group = rumble.compile(RumbleQueries.group(confusionFile)).asInstanceOf[FlworIterator]
    assert(group.clauses.last.vars.toSet == Set("target", "i#count"))
  }

  test("kept-key pin: json-file builds only the keys each paper query reads") {
    def kept(q: String, counting: Boolean) =
      rumble.compile(q).asInstanceOf[FlworIterator].keptKeys(counting)
    val filter = RumbleQueries.filter(confusionFile)
    val letWhere =
      s"""for $$i in json-file("$confusionFile")
         |let $$g := $$i.guess
         |let $$t := $$i.target
         |where $$g eq $$t
         |return $$i""".stripMargin
    val guessTarget = Some(Set("guess", "target"))
    // runCount counts the tuples and never evaluates `return $i`; run does
    assert(kept(filter, counting = true) == guessTarget)
    assert(kept(filter, counting = false) == None)
    assert(kept(letWhere, counting = true) == guessTarget)
    // the group's count($i) reads no key
    val group = RumbleQueries.group(confusionFile)
    assert(kept(group, counting = true) == Some(Set("target")))
    assert(kept(group, counting = false) == Some(Set("target")))
    // the sort writes whole objects; only a count of it reads just its keys
    val sort = RumbleQueries.sort(confusionFile)
    assert(kept(sort, counting = false) == None)
    assert(kept(sort, counting = true) == Some(Set("guess", "target", "country", "date")))
    assert(rumble.runCount(filter) == 1 && rumble.runCount(letWhere) == 1)
    assert(evalSpark(filter) == evalLocal(filter))
  }

  test("job pin: each benchmark query starts as many Spark jobs as before") {
    val file = tempJsonFile("jobs", (0L until 200L).map(ConfusionData.line(_, 7L)))
    val letWhere =
      s"""for $$i in json-file("$file")
         |let $$g := $$i.guess
         |let $$t := $$i.target
         |where $$g eq $$t
         |return $$i""".stripMargin
    val out = new java.io.File(
      java.nio.file.Files.createTempDirectory("rumble-out").toFile, "sorted").getAbsolutePath
    // each query through the entry point the benchmark runs it with
    val jobs = Seq(
      jobsStarted(rumble.runCount(RumbleQueries.filter(file))),
      jobsStarted(rumble.runCount(letWhere)),
      jobsStarted(rumble.run(RumbleQueries.group(file))),
      jobsStarted(rumble.writeJsonLines(RumbleQueries.sort(file), out)))
    // filter and let-where: the count; group: the shuffle map stage and the
    // collect; sort: the type pass, the range sampling, the map stage and the write
    assert(jobs == Seq(1, 1, 2, 4), jobs)
  }

  test("a rebinding drops the shadowed variable from the tuple stream (§4.5)") {
    val q = """for $x in parallelize(1 to 4) let $y := $x let $x := $x * 10 count $c
              |order by $y descending return [$x, $c]""".stripMargin
    val order = rumble.compile(q).asInstanceOf[FlworIterator].clauses.last
      .asInstanceOf[OrderByClauseIterator]
    assert(order.vars == Vector("y", "x", "c"))
    // the order key is evaluated before the shuffle, so $y has no cell
    assert(order.kept == Vector("x", "c"))
    checkAgainstLocal(q)
  }

  test("path pin: a FLWOR evaluated inside a closure runs locally") {
    val q   = "for $x in parallelize(1 to 5) where $x gt 3 return $x"
    val ctx = DynamicContext.root(RumbleConf()).enterClosure
    assert(flworPath(q, ctx) == FlworPath.Local)
    assert(rumble.compile(q).materialize(ctx) == List(IntItem(4), IntItem(5)))
  }

  // ------------------------------------------- per-clause column pruning

  test("clauses that read no variable get a zero-column UDF argument") {
    checkAgainstLocal(
      """for $x in parallelize(1 to 6)
        |let $c := 1
        |where true
        |order by 0
        |return $x + $c""".stripMargin)
    checkAgainstLocal("for $x in parallelize(1 to 3) let $y := $x return 7")
  }

  test("a nested FLWOR that rebinds an outer name reads the outer column") {
    checkAgainstLocal(
      """for $x in parallelize(1 to 4)
        |let $y := $x * 10
        |let $s := sum(for $x in 1 to $x return $x * $x)
        |return $s + $y""".stripMargin)
  }

  test("clauses after a count-only group by read the $v#count column") {
    checkAgainstLocal(
      """for $x in parallelize((1, 2, 1, 3, 1, 2))
        |group by $k := $x
        |where count($x) ge 2
        |order by count($x) descending
        |return {"k": $k, "n": count($x)}""".stripMargin)
  }

  test("order by keys that read different variables") {
    checkAgainstLocal(
      """for $x in parallelize(({"a": 2, "b": "p"}, {"a": 1, "b": "q"}, {"a": 2, "b": "o"}))
        |let $a := $x.a
        |let $b := $x.b
        |order by $a descending, $b
        |return $x""".stripMargin)
  }

  test("the let-where query's where clause reads only $g and $t") {
    // The where clause runs on the live tuple and decodes nothing; the
    // order boundary after it encodes only the variables read downstream.
    val q =
      """for $i in parallelize(({"guess": "a", "target": "a"}, {"guess": "b", "target": "b"}))
        |let $g := $i.guess
        |let $t := $i.target
        |where $g eq $t
        |order by $i.guess descending
        |return [$g, $t]""".stripMargin
    assert(rumble.compile(q).asInstanceOf[FlworIterator].clauses.last
      .asInstanceOf[OrderByClauseIterator].kept == Vector("g", "t"))
    checkAgainstLocal(q)
  }

  test("order by leaves nothing cached once the query's action is done") {
    val q = "for $x in parallelize((3, 1, 2)) order by $x descending return {\"v\": $x}"
    assert(ser(rumble.run(q)) == """{"v" : 3}, {"v" : 2}, {"v" : 1}""")
    val out = new java.io.File(
      java.nio.file.Files.createTempDirectory("rumble-out").toFile, "res").getAbsolutePath
    rumble.writeJsonLines(q, out)
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }

  test("runToRdd leaves the order-by cache to its caller, who can release it") {
    val q   = "for $x in parallelize((3, 1, 2)) order by $x return $x"
    val rdd = rumble.runToRdd(q)
    assert(rdd.collect().toList == List(IntItem(1), IntItem(2), IntItem(3)))
    assert(spark.sparkContext.getPersistentRDDs.nonEmpty)
    spark.catalog.clearCache()
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }

  // ---------------------------------------------- the order-by boundary

  test("the sort's plan has no key UDF and a range exchange sized to its input") {
    val q     = RumbleQueries.sort(confusionFile)
    val flwor = rumble.compile(q).asInstanceOf[FlworIterator]
    val order = flwor.clauses.last.asInstanceOf[OrderByClauseIterator]
    val ctx = DynamicContext.root(RumbleConf())
    try {
      val input  = flwor.tupleRdd(ctx, None, flwor.clauses.size - 1)
      val sorted = order.sortedFrame(input, ctx)
      val plan   = sorted.queryExecution.sparkPlan
      val udfs   = plan.collect { case p => p.expressions.flatMap(_.collect { case u: ScalaUDF => u }) }
      assert(udfs.flatten.isEmpty, plan)
      val exchanges = plan.collect { case e: ShuffleExchangeExec => e.outputPartitioning }
      val inputParts = input.getNumPartitions
      assert(exchanges.size == 1, plan)
      exchanges.head match {
        case r: RangePartitioning => assert(r.numPartitions == inputParts)
        case other                => fail(s"expected a range exchange, got $other")
      }
      assert(inputParts != spark.conf.get("spark.sql.shuffle.partitions").toInt)
      // the return reads only $i, so $i is the one cell next to the keys
      assert(sorted.columns.toSeq ==
        (0 until 3).flatMap(i => Seq(s"k${i}_r", s"k${i}_s")) :+ "c0")
    } finally ctx.releasePersisted()
  }

  test("the order by's type pass (§4.8) is one Spark job") {
    val q = "for $x in parallelize(1 to 40, 4) order by $x descending, -$x return $x"
    val flwor = rumble.compile(q).asInstanceOf[FlworIterator]
    val order = flwor.clauses.last.asInstanceOf[OrderByClauseIterator]
    val ctx = DynamicContext.root(RumbleConf())
    try assert(jobsStarted(order.sortedFrame(flwor.tupleRdd(ctx, None, 1), ctx)) == 1)
    finally ctx.releasePersisted()
    // the type pass, the range sampling, the exchange's map stage and the
    // one collect to the driver
    assert(jobsStarted(assert(rumble.run(q) == (40 to 1 by -1).map(IntItem(_)).toList)) == 4)
  }

  test("an order by over a one-partition RDD sorts into one partition") {
    val q = "for $x in parallelize((3, 1, 2, 5, 4), 1) order by $x descending return $x"
    checkAgainstLocal(q)
    val ctx = DynamicContext.root(RumbleConf())
    try assert(rumble.compile(q).getRDD(ctx).getNumPartitions == 1)
    finally ctx.releasePersisted()
  }

  // ---------------------------------------------- the group-by boundary

  /** Per partition of the GROUP BY's input: (rows, distinct encoded keys). */
  private def partialRows(q: String): Seq[(Int, Int)] = {
    val flwor = rumble.compile(q).asInstanceOf[FlworIterator]
    val group = flwor.clauses.last.asInstanceOf[GroupByClauseIterator]
    val frame = group.partialFrame(
      flwor.tupleRdd(DynamicContext.root(RumbleConf()), None, flwor.clauses.size - 1))
    frame.rdd.mapPartitions { rows =>
      val keys = rows.map(r => (r.getInt(0), r.getString(1))).toVector
      Iterator.single((keys.size, keys.distinct.size))
    }.collect().toSeq
  }

  test("group by pre-aggregates: one GROUP BY input row per partition and key") {
    val q = "for $x in parallelize(1 to 400, 8) group by $k := $x mod 5 return count($x)"
    val parts = partialRows(q)
    assert(parts.size == 8)
    // each partition holds 50 consecutive numbers, so all 5 keys
    assert(parts.forall(_ == ((5, 5))), parts)
    checkAgainstLocal(q, ordered = false)
  }

  test("a partition's fold emits its partial groups once it holds the bound") {
    val bound = GroupByClauseIterator.FlushBound.toInt
    // one partition, bound + 464 distinct keys: the fold fills with the
    // first `bound` keys, emits them, then folds the remaining 4464 tuples,
    // whose keys are distinct again
    val q = s"""for $$x in parallelize(1 to ${bound + 4464}, 1)
               |group by $$k := $$x mod ${bound + 464} return count($$x)""".stripMargin
    assert(partialRows(q) == Seq((bound + 4464, bound + 464)))
    assert(rumble.run(q).map(_.numericDouble.toLong).sorted ==
      (List.fill(bound + 464 - 4000)(1L) ++ List.fill(4000)(2L)))
  }

  // ------------------------------- JSONiq errors raised inside Spark tasks

  test("FOAR0001 in a where after a let reaches the caller as itself") {
    val q = "for $x in parallelize(0 to 9) let $y := $x where $y div $x gt 0 return $x"
    assert(flworPath(q) == FlworPath.Tuples)
    expectError(q, "FOAR0001")(rumble.run)
    expectError(q, "FOAR0001")(rumble.runCount)
    expectError(q, "FOAR0001")(rumble.runIterator(_).toList)
    expectError(q, "FOAR0001")(rumbleLocal.run)
  }

  test("FOAR0001 in an order-by key reaches the caller as itself") {
    val q = "for $x in parallelize(0 to 9) order by 10 div $x return $x"
    assert(flworPath(q) == FlworPath.DataFrame)
    expectError(q, "FOAR0001")(rumble.run)
    val out = new java.io.File(
      java.nio.file.Files.createTempDirectory("rumble-out").toFile, "res").getAbsolutePath
    expectError(q, "FOAR0001")(rumble.writeJsonLines(_, out))
    expectError(q, "FOAR0001")(rumbleLocal.run)
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }
}
