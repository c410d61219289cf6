package repro.core

import repro.core.json.CountingFileSystem
import repro.core.model._
import repro.core.runtime.DynamicContext
import repro.core.runtime.flwor.FlworPath

/** RDD-based execution of expression iterators (paper §4.1, §5.6): Spark
  * transformations for navigation/predicates, Spark actions for
  * aggregations, and the seamless local↔RDD switching of §5.5. */
class RddExecutionSpec extends RumbleSpec {

  test("parallelize produces an RDD-backed sequence") {
    val it = rumble.compile("parallelize(1 to 100)")
    assert(it.isRDD(DynamicContext.root(repro.core.runtime.RumbleConf())))
    assert(rumble.run("count(parallelize(1 to 100))") == List(IntItem(100)))
  }

  test("forced-local engine never uses RDDs") {
    val it = rumbleLocal.compile("parallelize(1 to 10)")
    assert(!it.isRDD(DynamicContext.root(
      repro.core.runtime.RumbleConf(forceLocal = true))))
  }

  test("object lookup maps to a flatMap on the RDD") {
    assert(evalSpark(
      "parallelize(({\"a\": 1}, {\"a\": 2}, {\"b\": 9})).a") == "1, 2")
  }

  test("array unbox on the RDD path") {
    assert(evalSpark("parallelize(([1, 2], [3], 4))[]") == "1, 2, 3")
  }

  test("array lookup on the RDD path") {
    assert(evalSpark("parallelize(([10, 20], [30, 40]))[[2]]") == "20, 40")
  }

  test("predicate filter on the RDD path") {
    assert(evalSpark("parallelize(1 to 10)[$$ mod 3 eq 0]") == "3, 6, 9")
  }

  test("positional predicate on the RDD path selects by position") {
    assert(evalSpark("parallelize(1 to 10, 3)[3]") == "3")
    // the items are numbered with zipWithIndex, one more Spark job than a
    // predicate that is provably boolean, which stays a plain filter
    assert(jobsStarted(evalSpark("parallelize(1 to 10, 3)[3]")) == 2)
    assert(jobsStarted(evalSpark("parallelize(1 to 10, 3)[$$ mod 3 eq 0]")) == 1)
  }

  test("count/sum/avg/min/max as Spark actions") {
    assert(evalSpark("count(parallelize(1 to 1000))") == "1000")
    assert(evalSpark("sum(parallelize(1 to 100))") == "5050")
    assert(evalSpark("avg(parallelize(1 to 100))") == "50.5")
    assert(evalSpark("min(parallelize((5, 3, 9)))") == "3")
    assert(evalSpark("max(parallelize((5, 3, 9)))") == "9")
  }

  test("sum gives the local answer on Spark: integer, mixed and empty input") {
    Seq("sum(parallelize((1, 2, 3)))"                    -> "6",
        "sum(parallelize((9007199254740993, 1), 2))"     -> "9007199254740994",
        "sum(parallelize((1, 2.5, 3, 4.5), 4))"          -> "11.0",
        "sum(parallelize((1.5, 2, 3), 3))"               -> "6.5",
        "sum(parallelize(()))"                           -> "0",
        "sum(parallelize(1 to 10)[$$ gt 99])"            -> "0")
      .foreach { case (q, expected) =>
        assert(evalLocal(q) == expected, q)
        assert(evalSpark(q) == expected, q)
      }
  }

  test("avg/min/max give the local answer on Spark: integer, mixed and empty input") {
    Seq("avg(parallelize((1, 2, 3, 4), 3))"              -> "2.5",
        "avg(parallelize((1, 2.5, 3, 4.5), 4))"          -> "2.75",
        "avg(parallelize(()))"                           -> "",
        "min(parallelize((5, 3, 9, 4), 3))"              -> "3",
        "max(parallelize((5, 3, 9, 4), 3))"              -> "9",
        "min(parallelize((2.5, 1, 3.5, 1.5), 4))"        -> "1",
        "max(parallelize((\"b\", \"c\", \"a\"), 3))"     -> "\"c\"",
        "min(parallelize(()))"                           -> "",
        "max(parallelize(1 to 10)[$$ gt 99])"            -> "",
        // ties keep the earlier item, whichever task finishes first
        "min(parallelize((1.0, for $i in 2 to 16 return 1), 16))"   -> "1.0",
        "max(parallelize((2, for $i in 2 to 16 return 2.0), 16))"   -> "2")
      .foreach { case (q, expected) =>
        assert(evalLocal(q) == expected, q)
        assert(evalSpark(q) == expected, q)
      }
  }

  test("integers above 2^53 compare exactly, locally and on Spark") {
    // 9007199254740992 = 2^53, where doubles stop telling integers apart
    Seq("9007199254740993 eq 9007199254740992"                         -> "false",
        "9007199254740993 ne 9007199254740992"                         -> "true",
        "9007199254740992 lt 9007199254740993"                         -> "true",
        "9007199254740993 gt 9007199254740992"                         -> "true",
        "min(parallelize((9007199254740993, 9007199254740992), 2))"    -> "9007199254740992",
        "max(parallelize((9007199254740992, 9007199254740993), 2))"    -> "9007199254740993",
        """for $x in parallelize((9007199254740993, 9007199254740992, 9007199254740993), 3)
          |where $x lt 9007199254740993 return $x""".stripMargin       -> "9007199254740992",
        """for $x in parallelize((9007199254740993, 9007199254740992), 2)
          |where $x eq 9007199254740992 return $x""".stripMargin       -> "9007199254740992")
      .foreach { case (q, expected) =>
        assert(evalLocal(q) == expected, q)
        assert(evalSpark(q) == expected, q)
      }
  }

  test("head as a Spark action") {
    assert(evalSpark("head(parallelize(1 to 64, 16))") == "1")
    assert(evalSpark("head(parallelize(1 to 64, 16)[$$ gt 99])") == "")
  }

  test("empty/exists as Spark actions") {
    assert(evalSpark("empty(parallelize(1 to 3))") == "false")
    assert(evalSpark("exists(parallelize(1 to 3))") == "true")
    assert(evalSpark("empty(parallelize(1 to 3)[$$ gt 99])") == "true")
  }

  test("distinct-values on the RDD path") {
    assert(rumble.run("distinct-values(parallelize((1, 2, 1, 3, 2)))")
      .toSet == Set(IntItem(1), IntItem(2), IntItem(3)))
  }

  test("chained navigation stays on the RDD without materializing") {
    val q = "parallelize(({\"a\": [1, 2]}, {\"a\": [3]}, {\"b\": [9]})).a[]"
    val it  = rumble.compile(q)
    val c   = DynamicContext.root(repro.core.runtime.RumbleConf())
    assert(it.isRDD(c))
    assert(it.getRDD(c).collect().toList == List(IntItem(1), IntItem(2), IntItem(3)))
  }

  test("json-file reads JSON lines as an RDD of items") {
    val path = tempJsonFile("rdd-json", Seq(
      """{"x": 1}""", """{"x": 2}""", "", """{"x": 3}"""))
    assert(evalSpark(s"""json-file("$path").x""") == "1, 2, 3")
  }

  test("json-file honors an explicit partition count") {
    val path = tempJsonFile("rdd-json-parts", (1 to 20).map(i => s"""{"x": $i}"""))
    val it = rumble.compile(s"""json-file("$path", 4)""")
    val c  = DynamicContext.root(repro.core.runtime.RumbleConf())
    assert(it.getRDD(c).getNumPartitions >= 4)
    assert(it.getRDD(c).count() == 20)
  }

  test("json-file: CRLF, blank and whitespace-only lines and non-ASCII values read alike on Spark and locally") {
    val f = java.io.File.createTempFile("rdd-json-crlf", ".json")
    f.deleteOnExit()
    val text = "{\"s\": \"é€😀\", \"n\": 1}\r\n" + "\r\n" + "  \t \u000b\u0001\r\n" + "\n" +
      "[\"ü\", \"a\\u00e9\\n\"]\r\n" + "\"日本語\"\n" + "   {\"n\": 2}   \r\n" + "{\"n\": 3}"
    java.nio.file.Files.write(f.toPath, text.getBytes("UTF-8"))
    for (parts <- Seq(1, 3)) {
      val q = s"""json-file("${f.getAbsolutePath}", $parts)"""
      checkAgainstLocal(q)
      assert(evalSpark(q) ==
        """{"s" : "é€😀", "n" : 1}, ["ü", "aé\n"], "日本語", {"n" : 2}, {"n" : 3}""")
    }
  }

  test("json-file: a byte that is not UTF-8 reads as U+FFFD on Spark and locally") {
    val f = java.io.File.createTempFile("rdd-json-bad-utf8", ".json")
    f.deleteOnExit()
    java.nio.file.Files.write(f.toPath,
      "{\"a\": \"".getBytes("UTF-8") ++ Array(0xff.toByte) ++ "\"}\n{\"a\": 2}\n".getBytes("UTF-8"))
    val q = s"""json-file("${f.getAbsolutePath}")"""
    checkAgainstLocal(q)
    assert(evalLocal(q) == "{\"a\" : \"\uFFFD\"}, {\"a\" : 2}")
  }

  test("json-file on Spark lists a directory without listLocatedStatus") {
    val dir = tempJsonDir("counted", Seq("b.json" -> Seq("""{"x": 2}"""), "a.json" -> Seq("""{"x": 1}""")))
    spark.sparkContext.hadoopConfiguration.set("fs.countfs.impl", classOf[CountingFileSystem].getName)
    CountingFileSystem.located.set(0)
    assert(evalSpark(s"""json-file("countfs://$dir").x""") == "1, 2")
    assert(CountingFileSystem.located.get == 0)
  }

  test("local API over an RDD-backed expression collects seamlessly (§5.5)") {
    // run() uses the local API; the RDD is collected behind the scenes
    assert(rumble.run("parallelize((\"a\", \"b\"))") ==
      List(StringItem("a"), StringItem("b")))
  }

  test("heterogeneous RDD of items (mixed kinds in one sequence)") {
    assert(evalSpark("count(parallelize((1, \"a\", null, [1], {\"k\": 2})))") == "5")
  }

  test("for+where+return FLWORs compile to the Fig. 9 RDD fast path") {
    val q = "for $x in parallelize(1 to 100) where $x mod 2 eq 0 return $x"
    assert(flworPath(q) == FlworPath.Tuples)
    assert(rumble.runCount(q) == 50)
    // with a let clause it is the same RDD of live tuples
    assert(flworPath("for $x in parallelize(1 to 10) let $y := $x where $y gt 5 return $y") ==
      FlworPath.Tuples)
  }

  test("fast-path FLWOR matches the general path's semantics") {
    val fast = rumble.run(
      "for $x in parallelize(1 to 20) where $x mod 3 eq 0 return $x * 10")
    val general = rumble.run(
      "for $x in parallelize(1 to 20) let $k := $x where $k mod 3 eq 0 return $k * 10")
    assert(fast == general)
    // multi-item and empty returns flow through flatMap correctly
    assert(evalSpark(
      "for $x in parallelize(1 to 3) where $x ge 2 return ($x, $x)") == "2, 2, 3, 3")
    assert(evalSpark(
      "for $x in parallelize(1 to 3) where $x ge 2 return ()") == "")
  }

  test("comma over RDD children unions the RDDs") {
    val q  = "(parallelize(1 to 3), parallelize(4 to 6))"
    val it = rumble.compile(q)
    val c  = DynamicContext.root(repro.core.runtime.RumbleConf())
    assert(it.isRDD(c))
    assert(it.getRDD(c).count() == 6)
  }
}
