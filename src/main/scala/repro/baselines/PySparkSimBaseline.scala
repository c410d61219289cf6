package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.json.{JsonParser, JsonWriter}
import repro.core.model._
import repro.baselines.RawSparkBaseline.{guessIsTarget, sortKey, sortOrdering, str}

/** PySpark baseline stand-in (§6.2/§6.4).
  *
  * '''Substitution''': the container has no Python runtime, so the paper's
  * PySpark measurements are modeled by an RDD pipeline in which every
  * user-lambda stage pays a full text serialize → parse round-trip per
  * record, emulating the pickle + JVM↔Python IPC cost that makes PySpark
  * the slowest system in the paper's Figs. 11/13. The number of round-trips
  * per record matches the number of Python lambdas the PySpark program
  * would run (one per map/filter/keyfunc stage, as in the paper's Fig. 2).
  */
object PySparkSimBaseline {

  /** One Python lambda invocation's worth of boundary cost for a record,
    * modeled as JVM serialize+parse cycles of the full record. Real PySpark
    * pays: pickle encode (JVM) + decode (CPython) for the argument, the
    * interpreted lambda body over CPython dicts, and encode + decode for
    * the result — and CPython's (de)serialization alone runs ~5–10× slower
    * than this JVM parser. Six cycles per lambda calibrates the stand-in to
    * the 1.5–3× end-to-end slowdown over raw Scala Spark that the paper's
    * PySpark measurements show (Figs. 11/13); the calibration is documented
    * in DESIGN.md. */
  private def pyBoundary(o: Item): Item = {
    var x = o
    var i = 0
    while (i < 6) { x = JsonParser.parse(JsonWriter.write(x)); i += 1 }
    x
  }

  /** Lines are decoded to strings before they are parsed, as Python
    * decodes each line before `json.loads`; unlike the engine's
    * byte-level `JsonParser.readLines`. */
  private def objects(spark: SparkSession, path: String) =
    spark.sparkContext.textFile(path)
      .mapPartitions(_.filter(_.trim.nonEmpty).map(JsonParser.parseLine))

  /** The raw-Spark queries, with each Python lambda's argument passed
    * through `pyBoundary`. */
  def filterQuery(spark: SparkSession, path: String): Long =
    objects(spark, path)
      .filter(o => guessIsTarget(pyBoundary(o))) // lambda o: o['guess'] == o['target']
      .count()

  def groupQuery(spark: SparkSession, path: String): Long =
    objects(spark, path)
      .map(o => (str(pyBoundary(o), "target"), 1L)) // lambda o: (o['target'], 1)
      .reduceByKey(_ + _)
      .count()

  def sortQuery(spark: SparkSession, path: String, out: String): Unit =
    objects(spark, path)
      .filter(o => guessIsTarget(pyBoundary(o)))
      .sortBy(o => sortKey(pyBoundary(o)))(sortOrdering, implicitly) // keyfunc lambda
      .map(o => JsonWriter.write(pyBoundary(o))) // json.dumps in Python
      .saveAsTextFile(out)
}
