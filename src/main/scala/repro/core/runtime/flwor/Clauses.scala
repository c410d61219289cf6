package repro.core.runtime.flwor

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, collect_list, first, sum}
import repro.core.model._
import repro.core.runtime._

/** Base of all FLWOR clause runtime iterators (paper §4.2–4.10, §5.8): a
  * map from the tuple stream entering the clause to the one leaving it.
  * [[FlworIterator]] folds its clause list over one stream, in the form
  * [[FlworIterator.path]] picks:
  *
  *  - '''local''': an iterator of [[FlworTuple]]s;
  *  - '''Spark''': an RDD of live tuples. The narrow clauses (`for`, `let`,
  *    `where`, `count`) map it partition by partition; only `group by` and
  *    `order by`, which shuffle, encode it into the paper's DataFrame (native
  *    key columns plus serialized cells, per [[TupleSchema]]) and decode the
  *    shuffled rows back into tuples.
  */
abstract class ClauseIterator extends Serializable {
  /** The variables the clause's output tuples bind, in binding order (§4.3). */
  def vars: Vector[String]
  def local(in: Iterator[FlworTuple], ctx: DynamicContext): Iterator[FlworTuple]
  def spark(in: RDD[FlworTuple], ctx: DynamicContext): RDD[FlworTuple]
}

object ClauseIterator {
  /** The in-scope variables with `v` bound last; rebinding `v` drops the
    * shadowed binding (paper §4.5). */
  def binding(inScope: Vector[String], v: String): Vector[String] = inScope.filterNot(_ == v) :+ v
}

/** A clause that turns each tuple into tuples on its own (`for`, `let`,
  * `where`): the same `step` runs on the driver's local stream and, under
  * `ctx.enterClosure`, on each partition of the tuple RDD. */
abstract class NarrowClauseIterator extends ClauseIterator {
  protected def step(t: FlworTuple, ctx: DynamicContext): Iterator[FlworTuple]

  def local(in: Iterator[FlworTuple], ctx: DynamicContext): Iterator[FlworTuple] =
    in.flatMap(step(_, ctx))

  def spark(in: RDD[FlworTuple], ctx: DynamicContext): RDD[FlworTuple] = {
    val base = ctx.enterClosure
    in.mapPartitions(_.flatMap(step(_, base)))
  }
}

/** `for $v in expr` (paper §4.4): binds each item of `expr` in a copy of the
  * tuple (the paper's extended projection followed by EXPLODE). As the
  * initial clause over an RDD-capable expression it is the source of the
  * tuple RDD, which [[FlworIterator]] maps from `expr`'s RDD of items. */
final class ForClauseIterator(inScope: Vector[String], val varName: String,
                              val expr: RuntimeIterator)
    extends NarrowClauseIterator {

  val vars: Vector[String] = ClauseIterator.binding(inScope, varName)

  protected def step(t: FlworTuple, ctx: DynamicContext): Iterator[FlworTuple] =
    expr.localIterator(ctx.bindAll(t.bindings)).map(i => t.updated(varName, List(i)))
}

/** `let $v := expr` (paper §4.5): extended projection without EXPLODE. As
  * the initial clause the execution stays local (paper: "If the let clause
  * is the first clause, we do not support the creation of a DataFrame"). */
final class LetClauseIterator(inScope: Vector[String], varName: String, expr: RuntimeIterator)
    extends NarrowClauseIterator {

  val vars: Vector[String] = ClauseIterator.binding(inScope, varName)

  protected def step(t: FlworTuple, ctx: DynamicContext): Iterator[FlworTuple] =
    Iterator.single(t.updated(varName, expr.materialize(ctx.bindAll(t.bindings))))
}

/** `where expr` (paper §4.6): keeps the tuples whose EBV is true. */
final class WhereClauseIterator(val vars: Vector[String], expr: RuntimeIterator)
    extends NarrowClauseIterator {

  protected def step(t: FlworTuple, ctx: DynamicContext): Iterator[FlworTuple] =
    if (expr.effectiveBoolean(ctx.bindAll(t.bindings))) Iterator.single(t) else Iterator.empty
}

/** How atomics are identified and ordered (paper §4.7–4.8). An atomic's
  * rank: 0 empty sequence least, 1 null, 2 false, 3 true, 4 string, 5
  * number, 9 empty sequence greatest. Its key `(rank, value)`: a string's
  * value is the string, a number's an ASCII text of its exact value
  * ([[exact]]), any other `""`. Keys are equal exactly when values are, and
  * order as values do with value strings in code point order (Spark SQL's
  * UTF-8 byte order): Graefe's normalized keys (ACM CSUR 38(3), 2006). So
  * group by, order by and `distinct-values` read two native columns on both
  * paths, and value comparison checks types by the same ranks. */
object KeyEncoder {
  val Null  = 1
  val False = 2
  val True  = 3
  val Str   = 4
  val Num   = 5

  /** The rank of an atomic; XPTY0004 for an object or array. */
  def rank(i: Item): Int = i match {
    case NullItem                                    => Null
    case BooleanItem(b)                              => if (b) True else False
    case _: StringItem                               => Str
    case _: IntItem | _: DecimalItem | _: DoubleItem => Num
    case other => throw new RumbleException("XPTY0004", s"not an atomic value: $other")
  }

  /** The key of an atomic (a double by its exact binary value); XPTY0004 for non-atomics. */
  def key(i: Item): (Int, String) = i match {
    case StringItem(s)                 => (Str, s)
    case DoubleItem(d) if d.isNaN      => (Num, "5")
    case DoubleItem(d) if d.isInfinite => (Num, if (d > 0) "4" else "0")
    case n if n.isNumeric              => (Num, exact(n.decimalValue))
    case other                         => (rank(other), "")
  }

  def encodeGroup(seq: List[Item]): (Int, String) = encodeOrder(seq, emptyGreatest = false)

  /** The key of a grouping or sort key sequence: empty, or one atomic. */
  def encodeOrder(seq: List[Item], emptyGreatest: Boolean): (Int, String) = seq match {
    case Nil      => (if (emptyGreatest) 9 else 0, "")
    case i :: Nil => key(i)
    case _ => throw new RumbleException("XPTY0004", "a key must be a singleton or empty")
  }

  /** A number's text: a class (`0` −INF, `1` negative, `2` zero, `3` positive,
    * `4` +INF, `5` NaN), then for `±0.d₁d₂… × 10^e` the biased exponent in ten
    * digits and the digits without trailing zeros. A negative complements
    * both and ends in `:`, above every digit, so longer digits sort first. */
  private def exact(v: java.math.BigDecimal): String =
    if (v.signum == 0) "2"
    else {
      val t      = v.stripTrailingZeros
      val digits = t.unscaledValue.abs.toString
      val e      = digits.length - t.scale.toLong + 5000000000L // in [0, 10^10)
      def tenDigits(x: Long) = (10000000000L + x).toString.substring(1)
      if (v.signum > 0) "3" + tenDigits(e) + digits
      else "1" + tenDigits(9999999999L - e) + digits.map(c => ('0' + '9' - c).toChar) + ":"
    }

  /** Code point order. Java's `compareTo` orders UTF-16 units, which puts
    * U+10000 and above before U+E000–U+FFFF; here surrogates move after them. */
  def compareStrings(a: String, b: String): Int = {
    def order(c: Char): Int = if (c < 0xD800) c else if (c < 0xE000) c + 0x2000 else c - 0x800
    val n = math.min(a.length, b.length)
    var i = 0
    while (i < n && a.charAt(i) == b.charAt(i)) i += 1
    if (i < n) order(a.charAt(i)) - order(b.charAt(i)) else a.length - b.length
  }

  def compare(a: (Int, String), b: (Int, String)): Int = {
    val c = Integer.compare(a._1, b._1)
    if (c != 0) c else compareStrings(a._2, b._2)
  }

  private def family(r: Int): Int = if (r == True) False else r

  /** Value order (`eq` … `ge`, `min`, `max`): numbers by [[Numeric.Compare]],
    * strings by code point, null < false < true with null below any other
    * atomic; other mixes are XPTY0004 (§4.8: "an error is thrown if there is
    * a string and a number"). */
  def compareAtomics(a: Item, b: Item): Int = (a, b) match {
    case (StringItem(x), StringItem(y))  => compareStrings(x, y)
    case _ if a.isNumeric && b.isNumeric => Numeric.Compare(a, b)
    case _ =>
      val (ra, rb) = (rank(a), rank(b))
      if (ra == Null || rb == Null || family(ra) == family(rb)) Integer.compare(ra, rb)
      else throw new RumbleException("XPTY0004", s"items not comparable: $a vs $b")
  }

  /** §4.8's first pass: the value ranks (false to number) in one sort spec's
    * `mask` (bit `r` for rank `r`) must be comparable; empty and null go with anything. */
  def checkOrderRanks(mask: Int, specIndex: Int): Unit =
    if (Seq(1 << False | 1 << True, 1 << Str, 1 << Num).count(f => (mask & f) != 0) > 1)
      throw new RumbleException(
        "XPTY0004", s"incompatible types in order-by key ${specIndex + 1}")
}

/** One `order by` sort spec with its compiled key expression. */
final case class OrderSpec(expr: RuntimeIterator, descending: Boolean, emptyGreatest: Boolean)
    extends Serializable

/** The group-by fold (paper §4.7) over live tuples, shared by the local
  * group-by and each Spark partition. Per encoded key it keeps the key
  * cells of the first tuple (all tuples of the group share them), the summed
  * lengths of the counted variables and the concatenated items of the
  * kept variables, in stream order. `entries` counts the groups
  * plus the buffered items, which bounds what the fold holds. */
private final class GroupFold(keys: List[String], counted: Vector[String], kept: Vector[String]) {
  import scala.collection.mutable

  final class Group(val keyCells: List[List[Item]]) {
    val counts: Array[Long]                   = new Array[Long](counted.size)
    val items: Array[mutable.ListBuffer[Item]] = Array.fill(kept.size)(mutable.ListBuffer.empty[Item])
  }

  private var groups = mutable.LinkedHashMap.empty[Any, Group]
  var entries: Long  = 0L

  def add(t: FlworTuple): Unit = {
    val b = t.bindings
    // one key is the common case: hash its code, not a one-element list
    val key = keys match {
      case k :: Nil => KeyEncoder.encodeGroup(b.getOrElse(k, Nil))
      case _        => keys.map(k => KeyEncoder.encodeGroup(b.getOrElse(k, Nil)))
    }
    val g = groups.getOrElseUpdate(key, { entries += 1; new Group(keys.map(b.getOrElse(_, Nil))) })
    var i = 0
    while (i < counted.size) { g.counts(i) += b.getOrElse(counted(i), Nil).size; i += 1 }
    i = 0
    while (i < kept.size) {
      val seq = b.getOrElse(kept(i), Nil)
      g.items(i) ++= seq
      entries += seq.size
      i += 1
    }
  }

  /** The groups folded so far, in first-seen order; the fold starts empty. */
  def drain(): Iterator[Group] = {
    val out = groups
    groups = mutable.LinkedHashMap.empty
    entries = 0L
    out.valuesIterator
  }
}

/** `group by $k, ...` (paper §4.7). Both paths fold the live tuples with
  * [[GroupFold]]. Locally the fold runs over the whole stream and its
  * groups are the result. On Spark each partition folds its tuples into
  * partial groups (starting a new fold whenever it holds [[FlushBound]]
  * entries, so task memory does not grow with the key cardinality) and
  * emits one row per partial group: per key variable its [[KeyEncoder]]
  * key (a rank and a value column) and its cell; per counted variable
  * its summed length; per kept variable the cell of its concatenated items.
  * The paper's GROUP BY then merges the partial rows on the encoded key
  * columns: key variables keep their first (all equal) cell, lengths are
  * summed (COUNT in the paper) and materialized cells are collected and
  * concatenated (`SEQUENCE()` in the paper).
  *
  * Which non-grouping variables are `kept` (materialized) or `counted` is the
  * translator's choice (§4.7): Rumble "detects if a non-grouping variable ...
  * is aggregated as a count rather than materialized — in this case COUNT()
  * is invoked in Spark SQL instead of materializing the non-grouping
  * values", and variables in neither list are not written at all. A counted
  * variable `v` is re-bound under the name `v#count` (the translator
  * rewrites downstream `count($v)` calls to `$v#count`).
  */
final class GroupByClauseIterator(keys: List[String], kept: Vector[String],
                                  counted: Vector[String])
    extends ClauseIterator {

  val vars: Vector[String] = keys.toVector ++ kept ++ counted.map(_ + "#count")

  /** A group's tuple on both paths, from the cell of key `i`, the summed
    * length of counted variable `i` and the items of kept variable `i`. */
  private def output(keyCell: Int => List[Item], count: Int => Long,
                     items: Int => List[Item]): FlworTuple =
    FlworTuple((keys.indices.map(i => keys(i) -> keyCell(i)) ++
      counted.indices.map(i => (counted(i) + "#count") -> List[Item](IntItem(count(i)))) ++
      kept.indices.map(i => kept(i) -> items(i))).toMap)

  /** The GROUP BY's input: each partition's partial groups of `in`, one row each. */
  def partialFrame(in: RDD[FlworTuple]): DataFrame = {
    val rows = in.mapPartitions { ts =>
      val fold = new GroupFold(keys, counted, kept)
      val groups = ts.flatMap { t =>
        fold.add(t)
        if (fold.entries >= GroupByClauseIterator.FlushBound) fold.drain() else Iterator.empty
      } ++ fold.drain()
      groups.map { g =>
        Row.fromSeq(g.keyCells.flatMap(KeyEncoder.encodeGroup(_).productIterator) ++
          g.keyCells.map(ItemSerde.serializeSeq) ++ g.counts ++
          g.items.map(b => ItemSerde.serializeSeq(b.toList)))
      }
    }
    SparkSession.active.createDataFrame(
      rows, TupleSchema.shuffleRow(keys.size, keys.size, counted.size, kept.size))
  }

  def spark(in: RDD[FlworTuple], ctx: DynamicContext): RDD[FlworTuple] = {
    val aggs: Seq[Column] = keys.indices.map(i => first(TupleSchema.cell(i))) ++
      counted.indices.map(i => sum(TupleSchema.count(i))) ++
      kept.indices.map(i => collect_list(TupleSchema.items(i)))
    val grouped = partialFrame(in)
      .groupBy(keys.indices.flatMap(TupleSchema.key).map(col): _*)
      .agg(aggs.head, aggs.tail: _*)
    val (at, nk, nc) = (2 * keys.size, keys.size, counted.size)
    grouped.rdd.map { row =>
      output(i => ItemSerde.deserializeSeq(row.getAs[Array[Byte]](at + i)),
        i => row.getLong(at + nk + i),
        i => row.getSeq[Array[Byte]](at + nk + nc + i).toList.flatMap(ItemSerde.deserializeSeq))
    }
  }

  def local(in: Iterator[FlworTuple], ctx: DynamicContext): Iterator[FlworTuple] = {
    val fold = new GroupFold(keys, counted, kept)
    var n    = 0L
    in.foreach { t =>
      n += 1
      HeapModel.check(ctx.conf.heapModelCap, n)
      fold.add(t)
    }
    fold.drain().map(g => output(g.keyCells, g.counts(_), g.items(_).toList))
  }
}

object GroupByClauseIterator {
  /** The entries (groups plus buffered items) a partition's fold holds
    * before it emits its partial groups and starts again. The GROUP BY
    * merges repeated partial groups, so answers do not depend on it. */
  val FlushBound: Long = 1L << 16
}

/** `order by` (paper §4.8). On Spark each live tuple becomes one row: per
  * sort spec the [[KeyEncoder]] key (rank and value) of its key
  * expression, evaluated on the tuple, then the cells of `kept` — the variables that later clauses
  * and `return` read. A first pass over the persisted rows discovers the
  * key types and throws on incompatibility; then the rows are
  * range-partitioned on the key columns into as many partitions as the
  * input has and sorted within each partition, which is Spark's global
  * ORDER BY with the partition count taken from the data. */
final class OrderByClauseIterator(val vars: Vector[String], specs: List[OrderSpec],
                                  val kept: Vector[String])
    extends ClauseIterator {

  /** The keys of tuple `t`, one per sort spec. */
  private def keysOf(t: FlworTuple, ctx: DynamicContext): Vector[(Int, String)] = {
    val c = ctx.bindAll(t.bindings)
    specs.iterator.map(s => KeyEncoder.encodeOrder(s.expr.materialize(c), s.emptyGreatest)).toVector
  }

  /** Per sort spec `i`, the OR of `b(i)` over each `b` of `bits`: the rank
    * bits of keys, or the masks of partitions. */
  private def rankMasks(bits: Iterator[Int => Int]): Array[Int] = {
    val m = new Array[Int](specs.size)
    bits.foreach(b => for (i <- m.indices) m(i) |= b(i))
    m
  }

  /** §4.8's type pass: XPTY0004 unless each spec's key ranks are comparable. */
  private def checkRanks(bits: Iterator[Int => Int]): Unit = {
    val m = rankMasks(bits)
    for (i <- m.indices) KeyEncoder.checkOrderRanks(m(i), i)
  }

  /** The sorted DataFrame of `in`: key columns, then the cells of `kept`,
    * per [[TupleSchema.shuffleRow]]. It reads a cache that lives until the
    * query's context is released. */
  def sortedFrame(in: RDD[FlworTuple], ctx: DynamicContext): DataFrame = {
    val base = ctx.enterClosure
    val rows = in.map(t => TupleSchema.rowFromTuple(t, kept, keysOf(t, base).flatMap(_.productIterator)))
    // The type-discovery pass, the range sampling and the sort all read the
    // encoded rows — cache them so the input is not recomputed.
    val df = ctx.persistForQuery(SparkSession.active.createDataFrame(
      rows, TupleSchema.shuffleRow(specs.size, kept.size)))
    // the type pass in one job: a mask per partition, OR-merged here
    checkRanks(df.select(specs.indices.map(i => col(TupleSchema.key(i).head)): _*).rdd
      .mapPartitions(rows => Iterator.single(rankMasks(rows.map(r => (i: Int) => 1 << r.getInt(i)))))
      .collect().iterator.map(m => (i: Int) => m(i)))
    val order = specs.zipWithIndex.flatMap { case (spec, i) =>
      TupleSchema.key(i).map(k => if (spec.descending) col(k).desc else col(k).asc)
    }
    df.repartitionByRange(math.max(1, in.getNumPartitions), order: _*)
      .sortWithinPartitions(order: _*)
  }

  def spark(in: RDD[FlworTuple], ctx: DynamicContext): RDD[FlworTuple] =
    sortedFrame(in, ctx).select(kept.indices.map(i => col(TupleSchema.cell(i))): _*).rdd
      .map(TupleSchema.tupleFromRow(_, kept))

  def local(in: Iterator[FlworTuple], ctx: DynamicContext): Iterator[FlworTuple] = {
    val buf = scala.collection.mutable.ArrayBuffer.empty[(FlworTuple, Vector[(Int, String)])]
    in.foreach { t =>
      HeapModel.check(ctx.conf.heapModelCap, buf.size + 1L)
      buf += ((t, keysOf(t, ctx)))
    }
    checkRanks(buf.iterator.map { case (_, k) => (i: Int) => 1 << k(i)._1 })
    // the first spec whose keys differ decides, in its direction
    buf.sortWith { case ((_, a), (_, b)) =>
      val i = specs.indices.indexWhere(i => KeyEncoder.compare(a(i), b(i)) != 0)
      i >= 0 && (KeyEncoder.compare(a(i), b(i)) < 0) != specs(i).descending
    }.iterator.map(_._1)
  }
}

/** `count $v` (paper §4.9): the tuple RDD's `zipWithIndex`, the technique
  * the paper uses because DataFrames lack it. */
final class CountClauseIterator(inScope: Vector[String], varName: String) extends ClauseIterator {

  val vars: Vector[String] = ClauseIterator.binding(inScope, varName)

  private def numbered(t: FlworTuple, i: Long): FlworTuple = t.updated(varName, List(IntItem(i + 1)))

  def spark(in: RDD[FlworTuple], ctx: DynamicContext): RDD[FlworTuple] =
    in.zipWithIndex().map { case (t, i) => numbered(t, i) }

  def local(in: Iterator[FlworTuple], ctx: DynamicContext): Iterator[FlworTuple] =
    in.zipWithIndex.map { case (t, i) => numbered(t, i) }
}

/** How a FLWOR runs: locally through the clauses' `local` (`Local`); on
  * Spark as an RDD of live tuples (`Tuples`), which for
  * `for … where … return` is the paper's Figure-9 lineage (`for` → map,
  * `where` → a partition map, `return` → flatMap, §5.7); or as
  * that RDD encoded into the paper's DataFrame at each `group by` /
  * `order by` (`DataFrame`, §4.7–4.8). */
object FlworPath extends Enumeration {
  val Local, Tuples, DataFrame = Value
}

/** The whole FLWOR expression (clause list + `return`, paper §4.10): an
  * *expression* iterator producing items, run on the path [[path]] picks.
  * On `Local` it folds the clauses' `local` over one empty tuple. On
  * `Tuples` and `DataFrame` the initial `for`'s items are the source of the
  * tuple RDD and the later clauses' `spark` fold over it. Either way
  * `return` flat-maps the last clause's tuples. This is the only code that
  * picks the source and the keys it reads.
  *
  * @param singletonReturn the translator proved the return expression
  *        yields exactly one item per tuple (a for-bound variable, an
  *        object/array constructor, a literal); a consuming `count()` can
  *        then count the tuples without materializing any item — the same
  *        aggregation-detection family as the paper's §4.7 COUNT pushdown.
  * @param clauseKeys the top-level keys of the initial `for` variable that
  *        the clauses read, when they read it only as `$v.key` or `count($v)`
  * @param allKeys the same for the clauses and the return together
  */
final class FlworIterator(val clauses: List[ClauseIterator], retExpr: RuntimeIterator,
                          singletonReturn: Boolean, clauseKeys: Option[Set[String]],
                          allKeys: Option[Set[String]])
    extends RuntimeIterator {

  private val source: Option[ForClauseIterator] = clauses.head match {
    case f: ForClauseIterator => Some(f)
    case _                    => None
  }

  /** The one decision of how this FLWOR runs in `ctx`: `Local` inside a
    * closure or unless the first clause is a `for` over an RDD-capable
    * expression; `DataFrame` when a clause shuffles; `Tuples` otherwise. */
  def path(ctx: DynamicContext): FlworPath.Value = source match {
    case Some(f) if !ctx.insideClosure && f.expr.isRDD(ctx) =>
      if (clauses.exists {
        case _: GroupByClauseIterator | _: OrderByClauseIterator => true
        case _                                                   => false
      }) FlworPath.DataFrame
      else FlworPath.Tuples
    case _ => FlworPath.Local
  }

  /** The top-level keys that a Spark path builds of each object the initial
    * `for` reads from `json-file` (`None`: whole objects). A `count` over a
    * singleton return never evaluates the return, so it keeps what the
    * clauses read; every other consumer goes through `getRDD` and keeps what
    * the clauses and the return read. */
  def keptKeys(counting: Boolean): Option[Set[String]] =
    if (counting && singletonReturn) clauseKeys else allKeys

  /** The tuple RDD out of the first `upTo` clauses on a Spark path: the
    * initial `for`'s items as one-variable tuples (each `json-file` object
    * built with only the `read` keys), through each later clause's `spark`. */
  def tupleRdd(ctx: DynamicContext, read: Option[Set[String]],
               upTo: Int = clauses.size): RDD[FlworTuple] = {
    val first = source.get
    val v     = first.varName
    val items = first.expr match {
      case file: JsonFileIterator => file.getRDD(ctx, read)
      case e                      => e.getRDD(ctx)
    }
    clauses.slice(1, upTo).foldLeft(items.map(i => FlworTuple(Map(v -> List(i))))) {
      (in, c) => c.spark(in, ctx)
    }
  }

  override def isRDD(ctx: DynamicContext): Boolean = path(ctx) != FlworPath.Local

  override def getRDD(ctx: DynamicContext): RDD[Item] =
    if (!isRDD(ctx)) super.getRDD(ctx)
    else {
      val base = ctx.enterClosure
      val re   = retExpr
      tupleRdd(ctx, keptKeys(counting = false))
        .flatMap(t => re.localIterator(base.bindAll(t.bindings)))
    }

  protected def compute(ctx: DynamicContext): Iterator[Item] =
    clauses.foldLeft(Iterator.single(FlworTuple.empty))((in, c) => c.local(in, ctx))
      .flatMap(t => retExpr.localIterator(ctx.bindAll(t.bindings)))

  /** Counts the tuples when the return yields one item each. */
  override def count(ctx: DynamicContext): Long =
    if (singletonReturn && isRDD(ctx)) tupleRdd(ctx, keptKeys(counting = true)).count()
    else super.count(ctx)
}
