package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SynthData}
import repro.datasets.ConfusionData

/** DuckDB oracle checks: every structured query result produced by the
  * JSONiq engine is diffed against the equivalent SQL on DuckDB over the
  * same input rows — catching wrong clause mappings, not just crashes. */
class OracleEquivalenceSpec extends RumbleSpec {

  private val nConf = 3000

  /** The same confusion records as (a) a JSON-Lines file for Rumble and
    * (b) a string-typed DataFrame for DuckDB. `date` is renamed to avoid
    * keyword friction; `choices`/`sample` are projected away (arrays are
    * not oracle-comparable). */
  private lazy val confusionFile: String =
    tempJsonFile("oracle-confusion", (0 until nConf).map(i => ConfusionData.line(i.toLong, 42L)))

  private lazy val confusionDf: DataFrame = {
    val items = (0 until nConf).map(i =>
      repro.core.json.JsonParser.parse(ConfusionData.line(i.toLong, 42L)))
    ItemFrames(spark, items)
      .select("guess", "target", "country", "date")
      .withColumnRenamed("date", "gamedate")
  }

  test("filter query matches DuckDB (projection + selection)") {
    val df = runToDataFrame(
      s"""for $$i in json-file("$confusionFile")
         |where $$i.guess eq $$i.target
         |return {"guess": $$i.guess, "target": $$i.target,
         |        "country": $$i.country, "gamedate": $$i.date}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT guess, target, country, gamedate FROM confusion WHERE guess = target",
      "confusion" -> confusionDf)
  }

  test("filter count matches DuckDB") {
    val df = runToDataFrame(
      s"""{"cnt": count(for $$i in json-file("$confusionFile")
         |            where $$i.guess eq $$i.target return $$i)}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT COUNT(*) AS cnt FROM confusion WHERE guess = target",
      "confusion" -> confusionDf)
  }

  test("group-by query matches DuckDB (COUNT pushdown path)") {
    val df = runToDataFrame(
      s"""for $$i in json-file("$confusionFile")
         |group by $$t := $$i.target
         |return {"target": $$t, "cnt": count($$i)}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT target, COUNT(*) AS cnt FROM confusion GROUP BY target",
      "confusion" -> confusionDf)
  }

  test("group-by on two keys matches DuckDB") {
    val df = runToDataFrame(
      s"""for $$i in json-file("$confusionFile")
         |group by $$t := $$i.target, $$c := $$i.country
         |return {"target": $$t, "country": $$c, "cnt": count($$i)}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT target, country, COUNT(*) AS cnt FROM confusion GROUP BY target, country",
      "confusion" -> confusionDf)
  }

  test("sort query content matches DuckDB (filter + order)") {
    val df = runToDataFrame(
      s"""for $$i in json-file("$confusionFile")
         |where $$i.guess eq $$i.target
         |order by $$i.target ascending, $$i.country descending, $$i.date descending
         |return {"target": $$i.target, "country": $$i.country, "gamedate": $$i.date}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT target, country, gamedate FROM confusion WHERE guess = target " +
      "ORDER BY target ASC, country DESC, gamedate DESC",
      "confusion" -> confusionDf)
  }

  test("sort query order matches a locally computed sort") {
    val res = rumble.run(
      s"""for $$i in json-file("$confusionFile")
         |where $$i.guess eq $$i.target
         |order by $$i.target ascending, $$i.country descending, $$i.date descending
         |return $$i.target || "|" || $$i.country || "|" || $$i.date""".stripMargin)
      .map(_.stringValue)
    val expected = confusionDf.collect()
      .filter(r => r.getString(0) == r.getString(1))
      .map(r => (r.getString(1), r.getString(2), r.getString(3)))
      .sortBy { case (t, c, d) => (t, Desc(c), Desc(d)) }
      .map { case (t, c, d) => s"$t|$c|$d" }
      .toList
    assert(res == expected)
  }

  private case class Desc(s: String)
  private implicit val descOrd: Ordering[Desc] = Ordering.by[Desc, String](_.s).reverse

  // ------------------------------------------------ TPC-H-lite (SynthData)

  private lazy val (lineitemFile, lineitemDf) = {
    val df   = SynthData.lineitem(spark, sf = 0.001)
    val path = java.nio.file.Files.createTempDirectory("oracle-li").resolve("li").toString
    df.toJSON.rdd.saveAsTextFile(path)
    (path, df)
  }

  test("TPC-H-lite: selective aggregation per returnflag matches DuckDB") {
    val df = runToDataFrame(
      s"""for $$l in json-file("$lineitemFile")
         |where $$l.l_quantity lt 25
         |group by $$r := $$l.l_returnflag
         |return {"r": $$r, "cnt": count($$l)}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT l_returnflag AS r, COUNT(*) AS cnt FROM lineitem " +
      "WHERE CAST(l_quantity AS DOUBLE) < 25 GROUP BY l_returnflag",
      "lineitem" -> lineitemDf)
  }

  test("TPC-H-lite: sum of discounts matches DuckDB") {
    val df = runToDataFrame(
      s"""{"s": sum(for $$l in json-file("$lineitemFile")
         |         where $$l.l_returnflag eq "R"
         |         return $$l.l_discount)}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT SUM(CAST(l_discount AS DOUBLE)) AS s FROM lineitem WHERE l_returnflag = 'R'",
      "lineitem" -> lineitemDf)
  }

  test("TPC-H-lite: per-group average quantity matches DuckDB") {
    val df = runToDataFrame(
      s"""for $$l in json-file("$lineitemFile")
         |group by $$f := $$l.l_linestatus
         |return {"f": $$f, "a": avg($$l.l_quantity)}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT l_linestatus AS f, AVG(CAST(l_quantity AS DOUBLE)) AS a " +
      "FROM lineitem GROUP BY l_linestatus",
      "lineitem" -> lineitemDf)
  }

  test("TPC-H-lite: min/max extended price matches DuckDB") {
    val df = runToDataFrame(
      s"""let $$p := (for $$l in json-file("$lineitemFile") return $$l.l_extendedprice)
         |return {"lo": min($$p), "hi": max($$p)}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT MIN(CAST(l_extendedprice AS DOUBLE)) AS lo, " +
      "MAX(CAST(l_extendedprice AS DOUBLE)) AS hi FROM lineitem",
      "lineitem" -> lineitemDf)
  }

  test("TPC-H-lite: distinct line numbers match DuckDB") {
    val df = runToDataFrame(
      s"""for $$n in distinct-values(
         |  for $$l in json-file("$lineitemFile") return $$l.l_linenumber)
         |return {"n": $$n}""".stripMargin)
    Oracle.assertEquivalent(df,
      "SELECT DISTINCT CAST(l_linenumber AS BIGINT) AS n FROM lineitem",
      "lineitem" -> lineitemDf)
  }
}
