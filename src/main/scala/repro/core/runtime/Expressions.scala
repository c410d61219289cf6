package repro.core.runtime

import org.apache.spark.rdd.RDD
import repro.core.model._

/** Literal atomic value. */
final class LiteralIterator(item: Item) extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] = Iterator.single(item)
}

/** `$name` — variable reference, resolved against the dynamic context. */
final class VarRefIterator(val name: String) extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] =
    ctx.lookupOrFail(name).iterator
}

/** `$$` — context item (inside predicates). */
final class ContextItemIterator extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] =
    ctx.contextItem match {
      case Some(item) => Iterator.single(item)
      case None => throw new RumbleException("XPDY0002", "context item ($$) not bound")
    }
}

/** `e1, e2, ...` and `()` — sequence concatenation. RDD-capable when every
  * child is (union of the children's RDDs); otherwise children are drained locally. */
final class CommaIterator(children: List[RuntimeIterator]) extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] =
    children.iterator.flatMap(_.localIterator(ctx))
  override def isRDD(ctx: DynamicContext): Boolean =
    children.nonEmpty && children.forall(_.isRDD(ctx))
  override def getRDD(ctx: DynamicContext): RDD[Item] =
    children.map(_.getRDD(ctx)).reduce(_ union _)
}

final class IfIterator(cond: RuntimeIterator, thenE: RuntimeIterator, elseE: RuntimeIterator)
    extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] =
    if (cond.effectiveBoolean(ctx)) thenE.localIterator(ctx) else elseE.localIterator(ctx)
}

/** `{ "k": v, ... }` — dynamic object construction. A value expression
  * yielding the empty sequence binds null; a multi-item sequence binds an
  * array (lenient construction, matching Rumble's behaviour). Two pairs
  * with one key are JNDY0003. */
final class ObjectConstructorIterator(pairs: List[(String, RuntimeIterator)])
    extends RuntimeIterator {
  // keys are literals, so a repeated one is found once, here
  private val repeated = pairs.map(_._1).diff(pairs.map(_._1).distinct).headOption

  protected def compute(ctx: DynamicContext): Iterator[Item] = {
    repeated.foreach(k => throw new RumbleException("JNDY0003", s"two pairs with key \"$k\""))
    val fields = pairs.map { case (k, e) =>
      val v = e.materialize(ctx) match {
        case Nil         => NullItem
        case List(item)  => item
        case many        => ArrayItem(many.toVector)
      }
      (k, v)
    }
    Iterator.single(ObjectItem(fields.toVector))
  }
}

/** `[ e ]` — array construction from the materialized member sequence. */
final class ArrayConstructorIterator(expr: Option[RuntimeIterator]) extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] =
    Iterator.single(ArrayItem(expr.map(_.materialize(ctx).toVector).getOrElse(Vector.empty)))
}

/** Navigation from each item of `target` (paper §4.1.2): `step` builds the
  * per-item function on the driver, and both paths apply it, locally as an
  * iterator flatMap and on the RDD path as a flatMap transformation. */
abstract class NavigationIterator(target: RuntimeIterator) extends RuntimeIterator {
  protected def step(ctx: DynamicContext): Item => IterableOnce[Item]
  protected def compute(ctx: DynamicContext): Iterator[Item] = {
    val f = step(ctx)
    target.localIterator(ctx).flatMap(f)
  }
  override def isRDD(ctx: DynamicContext): Boolean = target.isRDD(ctx)
  override def getRDD(ctx: DynamicContext): RDD[Item] = {
    val f = step(ctx)
    target.getRDD(ctx).flatMap(f)
  }
}

/** `e.key` — object lookup: objects yield their member (if present),
  * non-objects yield nothing. */
final class ObjectLookupIterator(target: RuntimeIterator, key: String)
    extends NavigationIterator(target) {
  protected def step(ctx: DynamicContext): Item => IterableOnce[Item] = {
    val k = key
    _.lookup(k)
  }
}

/** `e[]` — array unboxing: arrays yield their members, others nothing. */
final class ArrayUnboxIterator(target: RuntimeIterator) extends NavigationIterator(target) {
  protected def step(ctx: DynamicContext): Item => IterableOnce[Item] = _.arrayValues
}

/** `e[[i]]` — array member lookup, 1-based; out of range or an empty index
  * yields nothing. The index is evaluated once, on the driver. */
final class ArrayLookupIterator(target: RuntimeIterator, index: RuntimeIterator)
    extends NavigationIterator(target) {
  protected def step(ctx: DynamicContext): Item => IterableOnce[Item] =
    index.materializeAtMostOne(ctx) match {
      case None => _ => None
      case Some(i) if i.isNumeric =>
        val n = i.numericDouble.toLong
        it => {
          val vs = it.arrayValues
          if (it.isArray && n >= 1 && n <= vs.size) Some(vs((n - 1).toInt)) else None
        }
      case Some(other) =>
        throw new RumbleException("XPTY0004", s"array index must be numeric: $other")
    }
}

/** `e[p]` — predicate. For each input item, `$$` is bound to the item; a
  * singleton numeric predicate value selects by 1-based position, any other
  * value filters by effective boolean value. The RDD path (paper §5.6)
  * carries the predicate's runtime iterator in the closure and evaluates it
  * through the local API on the executors. When the translator proved that
  * the predicate never yields a number (`booleanPredicate`) that is a plain
  * `filter`; otherwise the items are numbered first with `zipWithIndex`,
  * as the count clause does (§4.9).
  */
final class PredicateIterator(target: RuntimeIterator, predicate: RuntimeIterator,
                              booleanPredicate: Boolean)
    extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] =
    target.localIterator(ctx).zipWithIndex.collect {
      case (item, i) if PredicateIterator.selects(predicate, ctx, item, i) => item
    }
  override def isRDD(ctx: DynamicContext): Boolean = target.isRDD(ctx)
  override def getRDD(ctx: DynamicContext): RDD[Item] = {
    val pred       = predicate
    val closureCtx = ctx.enterClosure
    val items      = target.getRDD(ctx)
    if (booleanPredicate) items.filter(PredicateIterator.selects(pred, closureCtx, _, 0L))
    else items.zipWithIndex().collect {
      case (item, i) if PredicateIterator.selects(pred, closureCtx, item, i) => item
    }
  }
}

object PredicateIterator {
  /** Whether `pred` keeps `item`, the input's item at 0-based `position`. */
  def selects(pred: RuntimeIterator, ctx: DynamicContext, item: Item, position: Long): Boolean =
    pred.materialize(ctx.withContextItem(item)) match {
      case List(n) if n.isNumeric => n.numericDouble == position + 1
      case result                 => Item.effectiveBooleanValue(result)
    }
}
