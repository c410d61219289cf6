package repro.core

import org.apache.spark.ListenerBusDrain
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.json.JsonWriter
import repro.core.model._
import repro.core.runtime.{DynamicContext, RumbleConf}
import repro.core.runtime.flwor.{FlworIterator, FlworPath}

/** Base for engine test suites: a forced-local engine (pure interpreter,
  * no Spark jobs) and a full engine over the shared SparkSession, plus
  * helpers that compare a query's result against its serialized form. */
trait RumbleSpec extends SparkSpec {

  lazy val rumble: Rumble      = new Rumble(spark)
  lazy val rumbleLocal: Rumble = new Rumble(spark, RumbleConf(forceLocal = true))

  /** Serialize a sequence of items the way expectations are written. */
  def ser(items: Seq[Item]): String = items.map(JsonWriter.write).mkString(", ")

  /** The path the FLWOR `query` takes in `ctx` (by default the Spark
    * engine's root context). */
  def flworPath(query: String,
                ctx: DynamicContext = DynamicContext.root(RumbleConf())): FlworPath.Value =
    rumble.compile(query).asInstanceOf[FlworIterator].path(ctx)

  /** Run on the forced-local engine and serialize. */
  def evalLocal(query: String): String = ser(rumbleLocal.run(query))

  /** Run on the Spark-enabled engine and serialize. */
  def evalSpark(query: String): String = ser(rumble.run(query))

  /** A query's result on `r`: its items, or the code of the JSONiq error
    * it raised. */
  def result(r: Rumble, query: String): Either[String, List[Item]] =
    try Right(r.run(query))
    catch { case e: RumbleException => Left(e.code) }

  /** [[result]] with the items serialized. */
  def outcome(r: Rumble, query: String): Either[String, List[String]] =
    result(r, query).map(_.map(JsonWriter.write))

  /** Assert the FLWOR root runs on a Spark path (Tuples or DataFrame), then
    * that it returns the forced-local engine's items — in the same
    * order unless `ordered` is false — or raises the same error code. */
  def checkAgainstLocal(query: String, ordered: Boolean = true): Unit = {
    check(rumble.compile(query).isRDD(DynamicContext.root(RumbleConf())),
      s"expected a Spark path for: $query")
    val onSpark = outcome(rumble, query)
    val local   = outcome(rumbleLocal, query)
    val agree   = if (ordered) onSpark == local else onSpark.map(_.sorted) == local.map(_.sorted)
    check(agree, s"$query\nSpark: $onSpark\nlocal: $local")
  }

  /** The outcome of `query` on both engines is `wanted`: its items (in
    * order, or as a sorted list when `ordered` is false) or an error code. */
  def both(query: String, wanted: Either[String, List[String]], ordered: Boolean = true): Unit =
    for ((name, r) <- Seq("Spark" -> rumble, "local" -> rumbleLocal)) {
      val got = outcome(r, query)
      check((if (ordered) got else got.map(_.sorted)) == wanted, s"$name: $query\ngot: $got\nwanted: $wanted")
    }

  /** Fail with `message` unless `ok`, through [[RumbleSpec.clue]]. */
  def check(ok: Boolean, message: => String): Unit =
    if (!ok) fail(RumbleSpec.clue(message))

  /** The query's result as a DataFrame, for the DuckDB oracle ([[ItemFrames]]). */
  def runToDataFrame(query: String): DataFrame = ItemFrames(spark, rumble.run(query))

  /** The number of Spark jobs `f` starts. */
  def jobsStarted(f: => Any): Int = {
    val sc   = spark.sparkContext
    val jobs = new java.util.concurrent.atomic.AtomicInteger
    val l = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    ListenerBusDrain(sc)
    sc.addSparkListener(l)
    try { f; ListenerBusDrain(sc); jobs.get }
    finally sc.removeSparkListener(l)
  }

  /** `run(query)` raises an error whose code starts with `codePrefix`. */
  def expectError(query: String, codePrefix: String)(run: String => Any): Unit =
    try {
      run(query)
      check(ok = false, s"$query: expected $codePrefix, got no error")
    } catch {
      case e: RumbleException =>
        check(e.code.startsWith(codePrefix), s"$query: expected $codePrefix, got ${e.code}: ${e.getMessage}")
    }

  /** Temp JSON-Lines file from raw lines; deleted on JVM exit. */
  def tempJsonFile(name: String, lines: Seq[String]): String = {
    val f = java.io.File.createTempFile(name, ".json")
    f.deleteOnExit()
    val w = new java.io.PrintWriter(f, "UTF-8")
    lines.foreach(w.println)
    w.close()
    f.getAbsolutePath
  }

  def tempJsonDir(name: String, files: Seq[(String, Seq[String])]): String =
    RumbleSpec.tempJsonDir(name, files)
}

object RumbleSpec {

  /** `s` with each unpaired surrogate written as its `\uXXXX` escape, as
    * [[JsonWriter]] writes it. Test reports are written as UTF-8, which has
    * no code for it: sbt's JUnit XML writer throws on one and drops the
    * suites still to run, so every failure message goes through here. */
  def clue(s: String): String =
    s.codePoints.toArray.map { cp =>
      if (Character.getType(cp) == Character.SURROGATE) f"\\u$cp%04x" else new String(Character.toChars(cp))
    }.mkString

  /** Run `check` on `n` samples of `gen`, the i-th drawn from seed i
    * (ScalaCheck generators sampled directly, with no shrinking — the
    * scalatest-plus bridge is not among the available offline dependencies). */
  def forAllSamples[T](gen: Gen[T], n: Int = 200)(check: T => Unit): Unit =
    (1 to n).foreach { i =>
      gen.apply(Gen.Parameters.default, Seed(i.toLong)).foreach(check)
    }

  /** Temp directory of JSON-Lines files, `(name, lines)` written in the
    * order given; a name may hold one subdirectory (`sub/x.json`). Deleted
    * on JVM exit. */
  def tempJsonDir(name: String, files: Seq[(String, Seq[String])]): String = {
    val dir = java.nio.file.Files.createTempDirectory(name).toFile
    dir.deleteOnExit()
    for ((file, lines) <- files) {
      val f = new java.io.File(dir, file)
      if (f.getParentFile.mkdir()) f.getParentFile.deleteOnExit()
      f.deleteOnExit()
      java.nio.file.Files.write(f.toPath, lines.map(_ + "\n").mkString.getBytes("UTF-8"))
    }
    dir.getAbsolutePath
  }
}
