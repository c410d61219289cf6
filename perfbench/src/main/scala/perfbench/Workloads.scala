package perfbench

import java.io.File
import scala.io.Source
import org.apache.spark.sql.SparkSession
import repro.baselines.{RawSparkBaseline, SparkSqlBaseline}
import repro.bench.RumbleQueries
import repro.core.Rumble
import repro.core.json.JsonParser
import repro.core.model._

/** What the answer checks compare against: the input size, and the number
  * of objects with guess = target as raw Spark counts it at set-up. */
final case class Expected(objects: Long, matches: Long)

/** One benchmark workload: a JSONiq query over generated confusion data, the
  * façade entry point that runs it, the check of its answer, and the raw
  * Spark and Spark SQL programs that compute the same answer.
  *
  * `run` returns the answer's check, run after the timed part: `None` when
  * the answer is right, otherwise what is wrong with it.
  */
sealed abstract class Workload(val name: String, val objects: Long) {
  def query(input: String): String
  def run(rumble: Rumble, input: String, out: String, expect: Expected): () => Option[String]
  def rawSpark(spark: SparkSession, input: String, out: String): Unit
  def sparkSql(spark: SparkSession, input: String, out: String): Unit

  /** The variables in scope at each clause UDF of the DataFrame tuple
    * stream, bound for one input object (one column each). */
  def tupleCells(obj: Item): Seq[(String, List[Item])] = Seq("i" -> List(obj))

  protected def countIs(n: Long, expect: Expected): () => Option[String] = () =>
    if (n == expect.matches) None else Some(s"count $n, expected ${expect.matches}")
}

object Workloads {

  /** The paper's T1 filter. It takes the RDD fast path: text read, JSON
    * parse and closure evaluation, with no tuple stream and no shuffle. */
  object Filter extends Workload("filter", 1_000_000L) {
    def query(input: String): String = RumbleQueries.filter(input)
    def run(rumble: Rumble, input: String, out: String, expect: Expected) =
      countIs(rumble.runCount(query(input)), expect)
    def rawSpark(spark: SparkSession, input: String, out: String): Unit =
      RawSparkBaseline.filterQuery(spark, input): Unit
    def sparkSql(spark: SparkSession, input: String, out: String): Unit =
      SparkSqlBaseline.filterQuery(spark, input): Unit
  }

  /** The filter's answer computed on the DataFrame tuple stream with three
    * variables in scope, so every clause UDF deserializes three columns. */
  object LetWhere extends Workload("let-where", 170_000L) {
    def query(input: String): String =
      s"""for $$i in json-file("$input")
         |let $$g := $$i.guess
         |let $$t := $$i.target
         |where $$g eq $$t
         |return $$i""".stripMargin
    def run(rumble: Rumble, input: String, out: String, expect: Expected) =
      countIs(rumble.runCount(query(input)), expect)
    def rawSpark(spark: SparkSession, input: String, out: String): Unit =
      Filter.rawSpark(spark, input, out)
    def sparkSql(spark: SparkSession, input: String, out: String): Unit =
      Filter.sparkSql(spark, input, out)
    override def tupleCells(obj: Item): Seq[(String, List[Item])] =
      Seq("i" -> List(obj), "g" -> obj.lookup("guess").toList, "t" -> obj.lookup("target").toList)
  }

  /** The paper's T1 group: a DataFrame group-by on skewed keys with the
    * grouped variable only counted. */
  object Group extends Workload("group", 200_000L) {
    def query(input: String): String = RumbleQueries.group(input)
    def run(rumble: Rumble, input: String, out: String, expect: Expected) = {
      val groups = rumble.run(query(input))
      () => {
        val counts = groups.map(_.lookup("count").map(_.numericDouble.toLong).getOrElse(-1L))
        val keys   = groups.flatMap(_.lookup("target")).distinct
        if (groups.size != 40 || keys.size != 40) Some(s"${groups.size} groups, expected 40")
        else if (counts.sum != expect.objects) Some(s"counts sum to ${counts.sum}, expected ${expect.objects}")
        else None
      }
    }
    def rawSpark(spark: SparkSession, input: String, out: String): Unit =
      RawSparkBaseline.groupQuery(spark, input): Unit
    def sparkSql(spark: SparkSession, input: String, out: String): Unit =
      SparkSqlBaseline.groupQuery(spark, input): Unit
  }

  /** The paper's T1 sort: filter, three order keys, a range-partitioned
    * sort, and the result written back as JSON Lines. */
  object Sort extends Workload("sort", 120_000L) {
    def query(input: String): String = RumbleQueries.sort(input)
    def run(rumble: Rumble, input: String, out: String, expect: Expected) = {
      rumble.writeJsonLines(query(input), out)
      () => checkSorted(out, expect.matches)
    }
    def rawSpark(spark: SparkSession, input: String, out: String): Unit =
      RawSparkBaseline.sortQuery(spark, input, out)
    def sparkSql(spark: SparkSession, input: String, out: String): Unit =
      SparkSqlBaseline.sortQuery(spark, input, out)
  }

  val all: Seq[Workload] = Seq(Filter, Group, LetWhere, Sort)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(
        s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))

  /** The part files of `dir`, in order, hold `n` lines in (target asc,
    * country desc, date desc) order. */
  def checkSorted(dir: String, n: Long): Option[String] = {
    val parts = Option(new File(dir).listFiles()).getOrElse(Array.empty[File])
      .filter(_.getName.startsWith("part-")).sortBy(_.getName)
    var count = 0L
    var prev: (String, String, String) = null
    var bad: Option[String] = None
    def str(o: Item, k: String) = o.lookup(k).map(_.stringValue).getOrElse("")
    parts.iterator.takeWhile(_ => bad.isEmpty).foreach { f =>
      val src = Source.fromFile(f, "UTF-8")
      try src.getLines().foreach { line =>
        val o   = JsonParser.parseLine(line)
        val key = (str(o, "target"), str(o, "country"), str(o, "date"))
        if (bad.isEmpty && prev != null) {
          val c1 = prev._1.compareTo(key._1)
          val ok = c1 < 0 || (c1 == 0 && {
            val c2 = key._2.compareTo(prev._2)
            c2 < 0 || (c2 == 0 && key._3.compareTo(prev._3) <= 0)
          })
          if (!ok) bad = Some(s"line ${count + 1} out of order: $prev before $key")
        }
        prev = key
        count += 1
      } finally src.close()
    }
    bad.orElse(if (count == n) None else Some(s"$count lines written, expected $n"))
  }
}
