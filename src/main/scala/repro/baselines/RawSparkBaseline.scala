package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.json.{JsonParser, JsonWriter}
import repro.core.model._

/** The paper's "raw Spark" baseline (§6.2, Fig. 2): hand-written RDD
  * programs in the host language — parse each JSON line, then chain
  * transformations, exactly the style the paper criticizes for its
  * data-independence leaks but uses as the performance reference.
  */
object RawSparkBaseline {

  /** The input read and parsed exactly as the engine's `json-file` does. */
  private def objects(spark: SparkSession, path: String) =
    JsonParser.readLines(spark.sparkContext, path, spark.sparkContext.defaultMinPartitions)

  /** The paper's filter predicate, `guess = target` (Fig. 2). */
  private[baselines] def guessIsTarget(o: Item): Boolean =
    (o.lookup("guess"), o.lookup("target")) match {
      case (Some(g), Some(t)) => g == t
      case _                  => false
    }

  /** Fig. 2-style filter: guess = target; returns the number of matches. */
  def filterQuery(spark: SparkSession, path: String): Long =
    objects(spark, path).filter(guessIsTarget).count()

  /** Aggregation: objects per target language; returns the group count. */
  def groupQuery(spark: SparkSession, path: String): Long =
    objects(spark, path)
      .map(o => (str(o, "target"), 1L))
      .reduceByKey(_ + _)
      .count()

  /** The sort's key and its order: target ASC, country DESC, date DESC. */
  private[baselines] def sortKey(o: Item): (String, String, String) =
    (str(o, "target"), str(o, "country"), str(o, "date"))

  private[baselines] val sortOrdering: Ordering[(String, String, String)] =
    new Ordering[(String, String, String)] {
      def compare(a: (String, String, String), b: (String, String, String)): Int = {
        var c = a._1.compareTo(b._1)
        if (c == 0) c = b._2.compareTo(a._2)
        if (c == 0) c = b._3.compareTo(a._3)
        c
      }
    }

  /** Fig. 3/4-style sort: filter then full sort by (target ASC, country
    * DESC, date DESC); writes JSON lines to `out` to force the sort. */
  def sortQuery(spark: SparkSession, path: String, out: String): Unit =
    objects(spark, path)
      .filter(guessIsTarget)
      .sortBy(sortKey)(sortOrdering, implicitly)
      .map(JsonWriter.write)
      .saveAsTextFile(out)

  /** The string value of member `k`, or "" when it is absent. */
  private[baselines] def str(o: Item, k: String): String =
    o.lookup(k).map(_.stringValue).getOrElse("")

  /** Reddit: highly filtering query (score >= threshold), §6.5/§6.6. */
  def redditFilter(spark: SparkSession, path: String, minScore: Long): Long =
    objects(spark, path).filter(o =>
      o.lookup("score").exists(s => s.isNumeric && s.numericDouble >= minScore)).count()
}
