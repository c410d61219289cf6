package perfbench

import java.io.File
import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core.Rumble
import repro.core.json.{JsonParser, JsonWriter}
import repro.core.model.{Item, ItemSerde}
import repro.core.parser.Parser
import repro.core.runtime.{DynamicContext, RumbleConf}
import repro.core.runtime.flwor.{KeyEncoder, TupleSchema}
import repro.core.semantics.Translator
import repro.datasets.ConfusionData

/** Spark jobs that stop after one layer of the input path: text read, then
  * JSON parse, then an `ItemSerde` round-trip of every object. */
object Stages {
  def text(spark: SparkSession, input: String): Long =
    spark.sparkContext.textFile(input).count()

  def parse(spark: SparkSession, input: String): Long =
    spark.sparkContext.textFile(input).map(JsonParser.parseLine).count()

  def serde(spark: SparkSession, input: String): Long =
    spark.sparkContext.textFile(input).map(JsonParser.parseLine)
      .map(i => ItemSerde.deserializeSeq(ItemSerde.serializeSeq(Seq(i)))).count()
}

/** The traced run's per-layer measurements, each taken through the layer's
  * public entry point: single-threaded timings over a sample of the
  * workload's input, and whole-input Spark jobs for the stages and the raw
  * Spark and Spark SQL references. Every measurement is a list of samples;
  * run.py takes their medians. */
final class Layers(spark: SparkSession, w: Workload, seed: Long, input: String, work: File) {

  val SampleObjects = 20000
  val Rounds        = 5
  val JobReps       = 3

  private val lines: Array[String] = Array.tabulate(SampleObjects)(i => ConfusionData.line(i.toLong, seed))
  private val items: Array[Item]   = lines.map(JsonParser.parseLine)
  private val out = mutable.LinkedHashMap.empty[String, Seq[Double]]
  // Keeps the timed loops' results observable so the JIT cannot drop them.
  @volatile private var sink: Long = 0L

  /** Nanoseconds per operation over `n` operations, for `Rounds` rounds after
    * one discarded warm-up round. */
  private def nsPerOp(n: Int)(op: Int => Long): Seq[Double] =
    (0 to Rounds).map { _ =>
      var acc = 0L
      val t0  = System.nanoTime()
      var i   = 0
      while (i < n) { acc += op(i); i += 1 }
      sink += acc
      (System.nanoTime() - t0).toDouble / n
    }.drop(1)

  private def seconds(reps: Int)(f: => Any): Seq[Double] =
    (1 to reps).map { _ =>
      val t0 = System.nanoTime()
      f
      (System.nanoTime() - t0) / 1e9
    }

  private def fresh(name: String): String = {
    val d = new File(work, name)
    Files.delete(d)
    d.getAbsolutePath
  }

  def measure(): Map[String, Seq[Double]] = {
    val q = w.query(input)
    out("parser.parse_ms") = nsPerOp(200)(_ => Parser.parse(q).hashCode.toLong).map(_ / 1e6)
    val ast = Parser.parse(q)
    out("semantics.translate_ms") =
      nsPerOp(200)(_ => Translator.translate(ast).hashCode.toLong).map(_ / 1e6)

    out("json.parse_ns_per_obj") = nsPerOp(lines.length)(i => JsonParser.parseLine(lines(i)).hashCode.toLong)
    out("json.write_ns_per_obj") = nsPerOp(items.length)(i => JsonWriter.write(items(i)).length.toLong)

    val cells = items.map(o => ItemSerde.serializeSeq(Seq(o)))
    out("model.ser_ns_per_item") = nsPerOp(items.length)(i => ItemSerde.serializeSeq(Seq(items(i))).length.toLong)
    out("model.deser_ns_per_item") = nsPerOp(cells.length)(i => ItemSerde.deserializeSeq(cells(i)).size.toLong)
    out("model.bytes_per_item") = Seq(cells.map(_.length.toLong).sum.toDouble / cells.length)

    val tuples = items.map(o => w.tupleCells(o))
    val names  = tuples.head.map(_._1)
    val tcells = tuples.map(_.map { case (_, seq) => ItemSerde.serializeSeq(seq) })
    val base   = DynamicContext.root(RumbleConf()).enterClosure
    out("flwor.context_ns_per_tuple") = nsPerOp(tcells.length)(i =>
      TupleSchema.contextFromCells(tcells(i), names, base).hashCode.toLong)

    // The group key and the three sort keys of every object.
    val keys = items.map(o => Seq("target", "country", "date").map(k => o.lookup(k).toList))
    out("flwor.key_encode_ns") = nsPerOp(keys.length) { i =>
      val k = keys(i)
      KeyEncoder.encodeGroup(k(0))._1.toLong +
        KeyEncoder.encodeOrder(k(0), emptyGreatest = false)._1 +
        KeyEncoder.encodeOrder(k(1), emptyGreatest = false)._1 +
        KeyEncoder.encodeOrder(k(2), emptyGreatest = false)._1
    }.map(_ / 4)

    val localFile = new File(work, "sample.json").getAbsolutePath
    ConfusionData.generateLocalFile(localFile, SampleObjects.toLong, seed)
    val local = new Rumble(spark, RumbleConf(forceLocal = true))
    out("runtime.local_ns_per_obj") = seconds(Rounds + 1) {
      val it = local.runIterator(w.query(localFile))
      var n  = 0L
      while (it.hasNext) { it.next(); n += 1 }
      sink += n
    }.drop(1).map(_ * 1e9 / SampleObjects)

    out("json.stage_text_s")   = seconds(JobReps)(Stages.text(spark, input))
    out("json.stage_parse_s")  = seconds(JobReps)(Stages.parse(spark, input))
    out("model.stage_serde_s") = seconds(JobReps)(Stages.serde(spark, input))

    out("ref.spark_rdd_s") = seconds(JobReps)(w.rawSpark(spark, input, fresh("ref-rdd")))
    out("ref.spark_sql_s") = seconds(JobReps)(w.sparkSql(spark, input, fresh("ref-sql")))
    out("ref.filter_s")    = seconds(JobReps)(new Rumble(spark).runCount(Workloads.Filter.query(input)))
    Files.delete(new File(work, "ref-rdd")); Files.delete(new File(work, "ref-sql"))
    out.toMap
  }
}

object Files {
  def delete(f: File): Unit = {
    if (f.isDirectory) Option(f.listFiles()).foreach(_.foreach(delete))
    f.delete(): Unit
  }

  def sizeOf(f: File): Long =
    if (f.isDirectory) Option(f.listFiles()).map(_.map(sizeOf).sum).getOrElse(0L)
    else f.length()
}
