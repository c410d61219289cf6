package repro.core

import repro.core.json.JsonParser
import repro.core.model._
import repro.datasets.HeterogeneousData

/** End-to-end queries over messy data (paper §3.4): the Fig. 7 grouping
  * query whose key is string | array | null | absent — the input Spark SQL
  * cannot represent without collapsing types (Fig. 6) — plus Fig. 5-style
  * mixed-type navigation. */
class HeterogeneousQueriesSpec extends RumbleSpec {

  private val nFig7 = 2000
  private lazy val fig7Dir: String = {
    val d = java.nio.file.Files.createTempDirectory("het").resolve("fig7").toString
    HeterogeneousData.generateFig7(spark, d, nFig7, partitions = 4)
  }

  /** The Fig. 7 query: normalize the key on the fly at query time. */
  private def fig7Query(path: String): String =
    s"""for $$o in json-file("$path")
       |group by $$c := if (exists($$o.country[]))
       |                then $$o.country[[1]]
       |                else if (exists($$o.country) and not($$o.country eq null))
       |                then $$o.country
       |                else "unknown"
       |return {"country": $$c, "cnt": count($$o)}""".stripMargin

  test("Fig. 7 grouping query runs on the DataFrame path over messy data") {
    val it = rumble.compile(fig7Query(fig7Dir))
    assert(it.isRDD(repro.core.runtime.DynamicContext.root(
      repro.core.runtime.RumbleConf())))
    val rows = rumble.run(fig7Query(fig7Dir))
    // groups cover every record exactly once
    assert(rows.map(_.lookup("cnt").get.numericDouble.toLong).sum == nFig7)
    // normalization: every group key is a plain string
    assert(rows.forall(_.lookup("country").exists(_.isString)))
    assert(rows.exists(_.lookup("country").contains(StringItem("unknown"))))
  }

  test("Fig. 7 query agrees with a hand-computed grouping") {
    val expected = (0 until nFig7)
      .map(i => JsonParser.parse(HeterogeneousData.fig7Line(i.toLong, 11L)))
      .groupBy { o =>
        o.lookup("country") match {
          case Some(a: ArrayItem) if a.values.nonEmpty => a.values.head.stringValue
          case Some(s: StringItem)                     => s.value
          case _                                       => "unknown"
        }
      }
      .view.mapValues(_.size.toLong).toMap
    val got = rumble.run(fig7Query(fig7Dir)).map(o =>
      o.lookup("country").get.stringValue ->
        o.lookup("cnt").get.numericDouble.toLong).toMap
    assert(got == expected)
  }

  test("grouping on mixed string/null/empty keys works; array keys error") {
    // string, null and absent (empty) keys group separately without error
    val file = tempJsonFile("mixedkeys", Seq(
      """{"c": "US"}""", """{"c": "US"}""", """{"c": null}""", """{"x": 1}""", """{"c": 7}"""))
    val counts = rumble.run(
      s"""for $$o in json-file("$file")
         |group by $$k := $$o.c
         |return count($$o)""".stripMargin).map(_.numericDouble.toLong)
    assert(counts.sorted == List(1L, 1L, 1L, 2L))
    // a structured (array) grouping key is a type error, raised inside the
    // Spark job and surfaced through the driver with its own code
    val fileArr = tempJsonFile("arrkey", Seq("""{"c": [1]}"""))
    expectError(s"""for $$o in json-file("$fileArr") group by $$k := $$o.c return 1""",
      "XPTY0004")(rumble.run)
  }

  test("Fig. 5 mixed-type field navigation") {
    val file = tempJsonFile("fig5", (0 until 300).map(i =>
      HeterogeneousData.fig5Line(i.toLong, 12L)))
    // numeric bars only: the others are skipped by the arithmetic guard
    val nums = rumble.run(
      s"""for $$o in json-file("$file")
         |where boolean($$o.bar[] ) or boolean(()) (: keep arrays :)
         |return $$o.bar[[1]]""".stripMargin)
    assert(nums.nonEmpty)
    val strs = rumble.run(
      s"""for $$o in json-file("$file")
         |return if (exists($$o.foobar)) then string($$o.foobar) else "missing"""".stripMargin)
    assert(strs.size == 300)
    assert(strs.exists(_.stringValue == "missing"))
    assert(strs.exists(s => s.stringValue == "true" || s.stringValue == "false"))
  }

  test("querying a heterogeneous collection does not lose type information") {
    val file = tempJsonFile("types", Seq(
      """{"foo": "1", "bar": 2, "foobar": true}""",
      """{"foo": "2", "bar": [4], "foobar": "false"}""",
      """{"foo": "3", "bar": "6"}"""))
    // unlike the DataFrame of Fig. 6, the original types are observable:
    // only the array-typed bar unboxes, only the numeric bar equals 4 via [[1]]
    assert(evalSpark(s"""json-file("$file").bar[]""") == "4")
    assert(evalSpark(
      s"""count(for $$o in json-file("$file") where $$o.bar[[1]] eq 4 return $$o)""") == "1")
    assert(evalSpark(
      s"""count(for $$o in json-file("$file") where exists($$o.foobar) return $$o)""") == "2")
  }
}
