package repro.core.runtime

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.core.model._

/** Engine configuration.
  *
  * @param forceLocal          disable all Spark execution (used by the
  *                            single-threaded Zorba/Xidel stand-ins, §6.3)
  * @param materializationCap  max items materialized from an RDD through the
  *                            local API before a warning is issued (§5.5)
  * @param heapModelCap        if set, the local group-by and order-by throw
  *                            [[HeapModelExceeded]] once they hold more than
  *                            this many tuples — models the 16 GB laptop
  *                            OOMs of the paper's single-threaded baselines
  */
final case class RumbleConf(
    forceLocal: Boolean = false,
    materializationCap: Long = 10_000_000L,
    heapModelCap: Option[Long] = None,
) extends Serializable

object HeapModel {
  /** Enforce the modeled heap cap on a buffer about to hold `n` items. */
  def check(cap: Option[Long], n: Long): Unit =
    cap.foreach { c => if (n > c) throw new HeapModelExceeded(n, c) }
}

/** Dynamic context (paper §5.5): chained variable bindings plus the context
  * item (`$$`, bound inside predicates). Serializable so it can travel into
  * Spark closures together with the runtime iterators it parameterizes
  * (§5.6). `insideClosure` marks contexts used on executors, where the RDD
  * API must not be invoked ("Spark jobs do not nest").
  */
final class DynamicContext(
    val parent: Option[DynamicContext],
    val vars: Map[String, List[Item]],
    val contextItem: Option[Item],
    val insideClosure: Boolean,
    val conf: RumbleConf,
) extends Serializable {

  def lookup(name: String): Option[List[Item]] =
    vars.get(name).orElse(parent.flatMap(_.lookup(name)))

  def lookupOrFail(name: String): List[Item] =
    lookup(name).getOrElse(
      throw new RumbleException("XPDY0002", s"variable $$$name not bound at runtime"))

  def bindAll(m: Map[String, List[Item]]): DynamicContext =
    if (m.isEmpty) this
    else new DynamicContext(Some(this), m, contextItem, insideClosure, conf)

  def withContextItem(item: Item): DynamicContext =
    new DynamicContext(Some(this), Map.empty, Some(item), insideClosure, conf)

  /** Context handed to code that runs inside a Spark closure. */
  def enterClosure: DynamicContext =
    new DynamicContext(Some(this), Map.empty, contextItem, insideClosure = true, conf)

  // Filled at the root context of one query, outside Spark closures.
  @transient private lazy val persisted = scala.collection.mutable.ListBuffer.empty[DataFrame]

  private def root: DynamicContext = parent.fold(this)(_.root)

  /** Persist `df` for the rest of the query evaluated under this context's
    * root; [[releasePersisted]] unpersists it. */
  def persistForQuery(df: DataFrame): DataFrame = {
    root.persisted += df
    df.persist(StorageLevel.MEMORY_AND_DISK)
  }

  /** Unpersist every DataFrame the query persisted. The façade calls this
    * once the query's consuming action has finished. */
  def releasePersisted(): Unit = {
    val r = root
    r.persisted.foreach(_.unpersist(blocking = true))
    r.persisted.clear()
  }
}

object DynamicContext {
  def root(conf: RumbleConf): DynamicContext =
    new DynamicContext(None, Map.empty, None, insideClosure = false, conf)
}
