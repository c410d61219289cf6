package repro.core

import repro.core.model._

/** Tests for the public façade: result shapes, runCount on both paths,
  * DataFrame conversion typing for the oracle. */
class RumbleApiSpec extends RumbleSpec {

  test("run materializes; runIterator streams") {
    assert(rumble.run("1 to 3") == List(IntItem(1), IntItem(2), IntItem(3)))
    val it = rumble.runIterator("1 to 1000")
    assert(it.take(2).toList == List(IntItem(1), IntItem(2)))
  }

  test("runCount without Spark (local path)") {
    assert(rumbleLocal.runCount("1 to 250") == 250)
    assert(rumbleLocal.runCount("()") == 0)
  }

  test("runCount with Spark (RDD count action)") {
    assert(rumble.runCount("for $x in parallelize(1 to 500) where $x mod 5 eq 0 return $x")
      == 100)
  }

  test("runToRdd on a local result parallelizes it") {
    assert(rumble.runToRdd("(1, 2, 3)").count() == 3)
  }

  test("runToDataFrame infers Long, Double, Boolean, String columns") {
    val df = runToDataFrame(
      """for $i in (1, 2)
        |return {"l": $i, "d": $i * 1.5, "b": $i eq 1, "s": "v" || $i}""".stripMargin)
    val types = df.schema.fields.map(f => f.name -> f.dataType.typeName).toMap
    assert(types("l") == "long")
    assert(types("d") == "double")
    assert(types("b") == "boolean")
    assert(types("s") == "string")
    assert(df.count() == 2)
  }

  test("runToDataFrame keeps every digit of an integer column") {
    val df = runToDataFrame("""{"a": 9007199254740993}""")
    assert(df.schema.fields.head.dataType.typeName == "long")
    assert(df.collect().map(_.getLong(0)).toSeq == Seq(9007199254740993L))
  }

  test("runToDataFrame: missing fields and nulls become SQL NULLs") {
    val df = runToDataFrame("""({"a": 1, "b": null}, {"a": 2})""")
    val rows = df.collect().sortBy(_.getLong(0))
    assert(rows.forall(_.isNullAt(1)))
  }

  test("runToDataFrame: mixed-type columns fall back to strings") {
    val df = runToDataFrame("""({"a": 1}, {"a": "x"})""")
    assert(df.schema.fields.head.dataType.typeName == "string")
    assert(df.collect().map(_.getString(0)).toSet == Set("1", "x"))
  }

  test("runToDataFrame rejects non-object items") {
    val e = intercept[RumbleException](runToDataFrame("(1, 2)"))
    assert(e.code == "RBML0003")
  }

  test("compile is reusable and side-effect free") {
    val it  = rumble.compile("1 + 1")
    val ctx = repro.core.runtime.DynamicContext.root(
      repro.core.runtime.RumbleConf())
    assert(it.materialize(ctx) == List(IntItem(2)))
    assert(it.materialize(ctx) == List(IntItem(2)))
  }

  test("local API contract: localIterator re-evaluates; runIterator streams (§5.5)") {
    val it  = rumbleLocal.compile("(10, 20)")
    val ctx = repro.core.runtime.DynamicContext.root(
      repro.core.runtime.RumbleConf(forceLocal = true))
    val first = it.localIterator(ctx)
    assert(first.hasNext)
    assert(first.next() == IntItem(10))
    assert(first.next() == IntItem(20))
    assert(!first.hasNext)
    assert(it.localIterator(ctx).toList == List(IntItem(10), IntItem(20)))
    // the third item raises FOAR0001, so only a streaming result yields two
    val streamed = rumbleLocal.runIterator("for $x in (1, 2, 0) return 2 idiv $x")
    assert(streamed.take(2).toList == List(IntItem(2), IntItem(1)))
  }

  private val countShapes = Seq(
    ("fast path", "for $i in parallelize(1 to 100) where $i mod 3 eq 0 return $i", 33),
    ("DataFrame",
     "for $i in parallelize(1 to 100) let $g := $i mod 3 let $t := 0 where $g eq $t return $i", 33),
    ("multi-item return",
     "for $i in parallelize(1 to 100) where $i mod 3 eq 0 return ($i, $i)", 66),
    ("multi-item return, DataFrame",
     "for $i in parallelize(1 to 100) let $g := $i mod 3 where $g eq 0 return ($i, $i)", 66),
  )

  for ((shape, q, n) <- countShapes; (path, r) <- Seq("local" -> rumbleLocal, "Spark" -> rumble))
    test(s"runCount, count() and run().size agree: $shape, $path") {
      assert(r.run(q).size == n)
      assert(r.runCount(q) == n)
      assert(r.run(s"count($q)") == List(IntItem(n)))
    }

  // A return that yields one item per tuple is not evaluated by a count
  // (XQuery 3.1 §2.3.4 lets the engine skip it), so its error never fires.
  for ((shape, q) <- Seq(
      "fast path" -> "for $i in parallelize(1 to 100) where $i mod 3 eq 0 return {\"x\": 1 div 0}",
      "DataFrame" -> ("for $i in parallelize(1 to 100) let $g := $i mod 3 let $t := 0 " +
                      "where $g eq $t return {\"x\": 1 div 0}")))
    test(s"count pushdown skips a singleton return: $shape") {
      expectError(q, "FOAR0001")(rumbleLocal.run)
      assert(rumble.runCount(q) == 33)
      assert(rumble.run(s"count($q)") == List(IntItem(33)))
    }

  test("materialization cap warns but does not fail (§5.5)") {
    val r = new Rumble(spark, repro.core.runtime.RumbleConf(materializationCap = 10))
    assert(r.run("parallelize(1 to 100)").size == 100)
  }

  test("run pulls a 16-partition RDD result to the driver in one job") {
    assert(jobsStarted(assert(rumble.run("parallelize(1 to 64, 16)").size == 64)) == 1)
    assert(jobsStarted(assert(rumble.runIterator("parallelize(1 to 64, 16)").size == 64)) == 1)
    // distinct-values over a 16-partition reduceByKey: its shuffle map
    // stage and the collect run as one job
    assert(jobsStarted(assert(
      rumble.run("distinct-values(parallelize(for $i in 1 to 64 return $i mod 5, 16))")
        .toSet == (0 to 4).map(IntItem(_)).toSet)) == 1)
  }

  test("heap model cap flows through the conf") {
    val r = new Rumble(spark, repro.core.runtime.RumbleConf(
      forceLocal = true, heapModelCap = Some(5)))
    val e = intercept[HeapModelExceeded](
      r.run("for $x in (1,2,3,4,5,6,7) order by $x return $x"))
    assert(e.code == "OOM-SIM" && e.getMessage.contains("cap 5"))
  }
}
