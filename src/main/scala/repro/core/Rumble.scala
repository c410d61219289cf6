package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.json.JsonWriter
import repro.core.model._
import repro.core.parser.Parser
import repro.core.runtime.{DynamicContext, RumbleConf, RuntimeIterator}
import repro.core.semantics.Translator

/** Public façade of the engine (paper §5.1): lexer/parser → expression tree
  * → runtime iterators → execution, local or on Spark, chosen dynamically.
  *
  * The same entry point serves Rumble proper and — with
  * `conf.forceLocal = true` and a `heapModelCap` — the single-threaded
  * Zorba stand-in of the §6.3 comparison, which the Xidel stand-in also
  * runs its queries on (`repro.baselines.SingleThreadedEngines`).
  */
final class Rumble(spark: SparkSession, conf: RumbleConf = RumbleConf()) {

  private def rootCtx: DynamicContext = DynamicContext.root(conf)

  /** Run `f` in a fresh query context, then release what the query
    * persisted (the order-by cache, §4.8). */
  private def withQuery[T](f: DynamicContext => T): T = {
    val ctx = rootCtx
    try Rumble.unwrapped(f(ctx))
    finally ctx.releasePersisted()
  }

  /** Parse + static-check + translate a query to its root runtime iterator. */
  def compile(query: String): RuntimeIterator = Translator.translate(Parser.parse(query))

  /** Evaluate and stream the result items (RDDs are collected through the
    * local API with the configured materialization cap, §5.5). What the
    * query persisted is released once the iterator is drained or fails. */
  def runIterator(query: String): Iterator[Item] = {
    val ctx = rootCtx
    def guarded[T](f: => T): T =
      try Rumble.unwrapped(f)
      catch { case e: Throwable => ctx.releasePersisted(); throw e }
    val items = guarded(compile(query).localIterator(ctx))
    new Iterator[Item] {
      def hasNext: Boolean = guarded(items.hasNext) || { ctx.releasePersisted(); false }
      def next(): Item     = guarded(items.next())
    }
  }

  /** Evaluate and materialize the full result. */
  def run(query: String): List[Item] = withQuery(ctx => compile(query).materialize(ctx))

  /** Evaluate for the number of result items without materializing them on
    * the driver — a `count` action when the result is an RDD, or a direct
    * DataFrame count when the FLWOR's return is provably one item/tuple. */
  def runCount(query: String): Long = withQuery(compile(query).count(_))

  /** The result as an RDD of items; local results are parallelized. The
    * caller consumes the RDD later, so what the query persisted (the
    * `order by` cache, §4.8) stays cached for the RDD's actions; releasing
    * it is the caller's job, once done with the RDD:
    * `spark.catalog.clearCache()`, which also drops the caller's own
    * cached tables. A JSONiq error raised inside one of those actions
    * reaches the caller wrapped in a `SparkException`. */
  def runToRdd(query: String): RDD[Item] = toRdd(query, rootCtx)

  private def toRdd(query: String, ctx: DynamicContext): RDD[Item] = {
    val it = compile(query)
    if (it.isRDD(ctx)) it.getRDD(ctx)
    else spark.sparkContext.parallelize(it.materialize(ctx))
  }

  /** Write the result back as a JSON-Lines directory (parallel when the
    * result is an RDD, §5.4: "Rumble can directly write the results back"). */
  def writeJsonLines(query: String, path: String): Unit =
    withQuery(toRdd(query, _).map(JsonWriter.write).saveAsTextFile(path))
}

object Rumble {

  /** Evaluate `f`; a [[RumbleException]] thrown inside a Spark task, which
    * reaches the driver wrapped in a `SparkException`, is rethrown as
    * itself, so that the caller sees the error code the local path raises. */
  private def unwrapped[T](f: => T): T =
    try f
    catch {
      case e: Throwable =>
        throw Iterator.iterate(e)(_.getCause).takeWhile(_ != null)
          .collectFirst { case r: RumbleException => r }.getOrElse(e)
    }
}
