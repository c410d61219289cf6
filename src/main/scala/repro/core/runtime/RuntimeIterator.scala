package repro.core.runtime

import org.apache.spark.rdd.RDD
import repro.core.model._

/** Base of all expression runtime iterators (paper §5.4–5.6).
  *
  * Two execution APIs, between which consumers switch seamlessly:
  *
  *  - '''local API''' (§5.5): `localIterator(ctx)` streams the result. If
  *    the iterator is RDD-capable in the given context, it transparently
  *    *materializes* the RDD (collected in one job, warning past
  *    the configured cap). An iterator holds no evaluation state, so one
  *    compiled tree can be evaluated any number of times.
  *  - '''RDD API''' (§5.6): `isRDD(ctx)` / `getRDD(ctx)` return the sequence
  *    of items as an `RDD[Item]` built by applying Spark transformations to
  *    the children's RDDs. Never available inside Spark closures
  *    (`ctx.insideClosure`), since Spark jobs do not nest.
  *
  * Subclasses implement `compute` (local semantics as a lazy iterator) and
  * optionally the RDD API and a cheaper `count`.
  */
abstract class RuntimeIterator extends Serializable {

  /** Local streaming semantics of this expression. */
  protected def compute(ctx: DynamicContext): Iterator[Item]

  /** Whether this expression can produce its result as an RDD here. */
  def isRDD(ctx: DynamicContext): Boolean = false

  /** The sequence of items as an RDD of Items; only when `isRDD(ctx)`. */
  def getRDD(ctx: DynamicContext): RDD[Item] =
    throw new RumbleException("RBML0001", s"${getClass.getSimpleName} has no RDD API")

  /** Local iterator over the result, collecting from the RDD if this
    * expression is Spark-backed (the §5.5 seamless switch). */
  final def localIterator(ctx: DynamicContext): Iterator[Item] =
    if (isRDD(ctx)) RddUtils.collectWithCap(getRDD(ctx), ctx.conf)
    else compute(ctx)

  /** Number of items in the result: a `count` action when the result is an
    * RDD, else a local drain. FLWORs override it to count without
    * evaluating a return expression that yields one item per tuple. */
  def count(ctx: DynamicContext): Long =
    if (isRDD(ctx)) getRDD(ctx).count()
    else localIterator(ctx).foldLeft(0L)((n, _) => n + 1)

  /** Fully materialized result (used for singleton/small sequences). */
  final def materialize(ctx: DynamicContext): List[Item] = localIterator(ctx).toList

  /** Materialize expecting zero-or-one item (value-comparison operands,
    * sort keys, lookup indices, ...). */
  final def materializeAtMostOne(ctx: DynamicContext): Option[Item] = {
    val it = localIterator(ctx)
    if (!it.hasNext) None
    else {
      val first = it.next()
      if (it.hasNext)
        throw new RumbleException("XPTY0004", "expected a singleton sequence")
      Some(first)
    }
  }

  /** Effective boolean value of this expression's result. */
  final def effectiveBoolean(ctx: DynamicContext): Boolean =
    Item.effectiveBooleanValue(localIterator(ctx))
}

object RddUtils {
  /** Collect an RDD's items to the driver in one Spark job, warning past
    * the cap (paper §5.5: "a warning is issued if the RDD has more
    * items"). */
  def collectWithCap(rdd: RDD[Item], conf: RumbleConf): Iterator[Item] = {
    val items = rdd.collect()
    if (items.length > conf.materializationCap)
      Console.err.println(
        s"[rumble] warning: materializing more than " +
        s"${conf.materializationCap} items through the local API")
    items.iterator
  }
}
