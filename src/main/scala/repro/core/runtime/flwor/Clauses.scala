package repro.core.runtime.flwor

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{col, collect_list, first, sum}
import org.apache.spark.sql.types._
import repro.core.model._
import repro.core.runtime._

/** Base of all FLWOR clause runtime iterators (paper §4.2–4.10, §5.8).
  *
  * A clause consumes the tuple stream of its parent clause and produces its
  * own, in the form [[FlworIterator.path]] chooses for the whole chain:
  *
  *  - '''local''' (`tupleIterator`): pull-based stream of [[FlworTuple]]s;
  *  - '''Spark''' (`tupleRdd`): an RDD of live tuples. The narrow clauses
  *    (`for`, `let`, `where`, `count`) map it partition by partition; only
  *    `group by` and `order by`, which shuffle, encode it into the paper's
  *    DataFrame (native key columns plus serialized cells, per
  *    [[TupleSchema]]) and decode the shuffled rows back into tuples.
  */
abstract class ClauseIterator extends Serializable {
  /** The previous clause; `None` for the first clause of the FLWOR. */
  def parent: Option[ClauseIterator]
  /** The variables this clause's tuples bind, in binding order (§4.3). */
  def vars: Vector[String]
  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple]
  /** The tuple RDD. `read` is passed up the chain to the initial `for`:
    * when given and that `for` reads `json-file`, each object line is built
    * with only those top-level keys ([[FlworIterator.keptKeys]]). */
  def tupleRdd(ctx: DynamicContext, read: Option[Set[String]]): RDD[FlworTuple]

  /** The parent's variables with `v` bound last; rebinding `v` drops the
    * shadowed binding (paper §4.5). */
  protected def binding(v: String): Vector[String] =
    parent.fold(Vector.empty[String])(_.vars).filterNot(_ == v) :+ v
}

/** A clause that turns each tuple into tuples on its own (`for`, `let`):
  * the same `step` runs on the driver's local stream and, under
  * `ctx.enterClosure`, on each partition of the parent's tuple RDD. */
abstract class NarrowClauseIterator extends ClauseIterator {
  protected def step(t: FlworTuple, ctx: DynamicContext): Iterator[FlworTuple]

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] = parent match {
    case None    => step(FlworTuple.empty, ctx)
    case Some(p) => p.tupleIterator(ctx).flatMap(step(_, ctx))
  }

  def tupleRdd(ctx: DynamicContext, read: Option[Set[String]]): RDD[FlworTuple] = {
    val base = ctx.enterClosure
    parent.get.tupleRdd(ctx, read).mapPartitions(_.flatMap(step(_, base)))
  }
}

/** `for $v in expr` (paper §4.4). As the *initial* clause over an
  * RDD-capable expression it maps the RDD of items to one-variable tuples;
  * as a later clause it binds each item of `expr` in a copy of the tuple
  * (the paper's extended projection followed by EXPLODE). */
final class ForClauseIterator(
    val parent: Option[ClauseIterator],
    varName: String,
    val expr: RuntimeIterator,
) extends NarrowClauseIterator {

  val vars: Vector[String] = binding(varName)

  protected def step(t: FlworTuple, ctx: DynamicContext): Iterator[FlworTuple] =
    expr.localIterator(ctx.bindAll(t.bindings)).map(i => t.updated(varName, List(i)))

  override def tupleRdd(ctx: DynamicContext, read: Option[Set[String]]): RDD[FlworTuple] =
    parent match {
      case None =>
        val v = varName
        val items = expr match {
          case file: JsonFileIterator => file.getRDD(ctx, read)
          case _                      => expr.getRDD(ctx)
        }
        items.map(item => FlworTuple(Map(v -> List(item))))
      case Some(_) => super.tupleRdd(ctx, read)
    }
}

/** `let $v := expr` (paper §4.5): extended projection without EXPLODE. As
  * the initial clause the execution stays local (paper: "If the let clause
  * is the first clause, we do not support the creation of a DataFrame"). */
final class LetClauseIterator(
    val parent: Option[ClauseIterator],
    varName: String,
    expr: RuntimeIterator,
) extends NarrowClauseIterator {

  val vars: Vector[String] = binding(varName)

  protected def step(t: FlworTuple, ctx: DynamicContext): Iterator[FlworTuple] =
    Iterator.single(t.updated(varName, expr.materialize(ctx.bindAll(t.bindings))))
}

/** `where expr` (paper §4.6): keeps the tuples whose EBV is true — a
  * filter of the local stream, and of the tuple RDD under
  * `ctx.enterClosure`. */
final class WhereClauseIterator(input: ClauseIterator, expr: RuntimeIterator)
    extends ClauseIterator {

  def parent: Option[ClauseIterator] = Some(input)
  val vars: Vector[String]           = input.vars

  private def keeps(t: FlworTuple, ctx: DynamicContext): Boolean =
    expr.effectiveBoolean(ctx.bindAll(t.bindings))

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] =
    input.tupleIterator(ctx).filter(keeps(_, ctx))

  def tupleRdd(ctx: DynamicContext, read: Option[Set[String]]): RDD[FlworTuple] = {
    val base = ctx.enterClosure
    input.tupleRdd(ctx, read).filter(keeps(_, base))
  }
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

  /** The DataFrame fields of key `name`: its rank `name_r` and value `name_s`. */
  def fields(name: String): Seq[StructField] = Seq(
    StructField(name + "_r", IntegerType, nullable = false),
    StructField(name + "_s", StringType, nullable = false))

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

/** How a non-grouping variable is aggregated by group-by (paper §4.7):
  * Rumble "detects if a non-grouping variable ... is aggregated as a count
  * rather than materialized — in this case COUNT() is invoked in Spark SQL
  * instead of materializing the non-grouping values", and drops variables
  * that are not used at all. */
object GroupAggMode extends Enumeration {
  val Materialize, CountOnly, Drop = Value
}

/** The group-by fold (paper §4.7) over live tuples, shared by the local
  * group-by and each Spark partition. Per encoded key it keeps the first
  * tuple (whose key cells all tuples of the group share), the summed
  * lengths of the CountOnly variables and the concatenated items of the
  * Materialize variables, in stream order. `entries` counts the groups
  * plus the buffered items, which bounds what the fold holds. */
private final class GroupFold(keys: List[String], counted: Vector[String], kept: Vector[String]) {
  import scala.collection.mutable

  final class Group(val first: FlworTuple) {
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
    val g = groups.getOrElseUpdate(key, { entries += 1; new Group(t) })
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
  * key (a rank and a value column) and its cell; per CountOnly variable
  * its summed length; per Materialize variable the cell of its
  * concatenated items.
  * The paper's GROUP BY then merges the partial rows on the encoded key
  * columns: key variables keep their first (all equal) cell, lengths are
  * summed (COUNT in the paper) and materialized cells are collected and
  * concatenated (`SEQUENCE()` in the paper); Drop variables are not
  * written at all, per [[GroupAggMode]].
  *
  * A CountOnly variable `v` is re-bound under the name `v#count` (the
  * translator rewrites downstream `count($v)` calls to `$v#count`).
  */
final class GroupByClauseIterator(
    input: ClauseIterator,
    keys: List[String],
    modes: Map[String, GroupAggMode.Value],
) extends ClauseIterator {

  private val nonKeys: Vector[String] = input.vars.filterNot(keys.contains)
  private def modeOf(v: String)       = modes.getOrElse(v, GroupAggMode.Materialize)
  private val kept    = nonKeys.filter(v => modeOf(v) == GroupAggMode.Materialize)
  private val counted = nonKeys.filter(v => modeOf(v) == GroupAggMode.CountOnly)

  val vars: Vector[String] = keys.toVector ++ kept ++ counted.map(_ + "#count")

  def parent: Option[ClauseIterator] = Some(input)

  /** The GROUP BY's input: each partition's partial groups, one row each. */
  def partialFrame(ctx: DynamicContext, read: Option[Set[String]]): DataFrame = {
    val (ks, cs, ms) = (keys, counted, kept)
    val rows = input.tupleRdd(ctx, read).mapPartitions { ts =>
      val fold = new GroupFold(ks, cs, ms)
      val groups = ts.flatMap { t =>
        fold.add(t)
        if (fold.entries >= GroupByClauseIterator.FlushBound) fold.drain() else Iterator.empty
      } ++ fold.drain()
      groups.map { g =>
        Row.fromSeq(
          ks.flatMap { k =>
            val seq    = g.first.bindings.getOrElse(k, Nil)
            val (r, s) = KeyEncoder.encodeGroup(seq)
            Seq(r, s, ItemSerde.serializeSeq(seq))
          } ++ g.counts ++ g.items.map(b => ItemSerde.serializeSeq(b.toList)))
      }
    }
    val schema = StructType(
      ks.indices.flatMap(i => KeyEncoder.fields(s"k$i") :+ StructField(s"c$i", BinaryType)) ++
        cs.indices.map(i => StructField(s"n$i", LongType)) ++
        ms.indices.map(i => StructField(s"m$i", BinaryType)))
    SparkSession.active.createDataFrame(rows, schema)
  }

  def tupleRdd(ctx: DynamicContext, read: Option[Set[String]]): RDD[FlworTuple] = {
    val (ks, cs, ms) = (keys, counted, kept)
    val aggs: Seq[Column] = ks.indices.map(i => first(s"c$i")) ++
      cs.indices.map(i => sum(s"n$i")) ++ ms.indices.map(i => collect_list(s"m$i"))
    val grouped = partialFrame(ctx, read)
      .groupBy(ks.indices.flatMap(i => KeyEncoder.fields(s"k$i").map(f => col(f.name))): _*)
      .agg(aggs.head, aggs.tail: _*)
    val at = 2 * ks.size
    grouped.rdd.map { row =>
      val kb = ks.indices.map(i => ks(i) -> ItemSerde.deserializeSeq(row.getAs[Array[Byte]](at + i)))
      val cb = cs.indices.map(i =>
        (cs(i) + "#count") -> List[Item](IntItem(row.getLong(at + ks.size + i))))
      val mb = ms.indices.map(i =>
        ms(i) -> row.getSeq[Array[Byte]](at + ks.size + cs.size + i).toList
          .flatMap(ItemSerde.deserializeSeq))
      FlworTuple((kb ++ cb ++ mb).toMap)
    }
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] = {
    val fold = new GroupFold(keys, counted, kept)
    var n    = 0L
    input.tupleIterator(ctx).foreach { t =>
      n += 1
      HeapModel.check(ctx.conf.heapModelCap, n)
      fold.add(t)
    }
    fold.drain().map { g =>
      val kb = keys.map(k => k -> g.first.bindings.getOrElse(k, Nil))
      val vb = kept.indices.map(i => kept(i) -> g.items(i).toList)
      val cb = counted.indices.map(i => (counted(i) + "#count") -> List[Item](IntItem(g.counts(i))))
      FlworTuple((kb ++ vb ++ cb).toMap)
    }
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
final class OrderByClauseIterator(input: ClauseIterator, specs: List[OrderSpec],
                                  val kept: Vector[String])
    extends ClauseIterator {

  def parent: Option[ClauseIterator] = Some(input)
  val vars: Vector[String]           = input.vars

  /** The sorted DataFrame: key columns `k<i>_r/_s`, then the cells of
    * `kept`, `c0`, `c1`, …. It reads a cache that lives until the query's
    * context is released. */
  def sortedFrame(ctx: DynamicContext, read: Option[Set[String]]): DataFrame = {
    val tuples = input.tupleRdd(ctx, read)
    val cs     = kept
    val base   = ctx.enterClosure
    val ss     = specs
    val rows = tuples.map { t =>
      val c = base.bindAll(t.bindings)
      TupleSchema.rowFromTuple(t, cs, ss.flatMap { s =>
        KeyEncoder.encodeOrder(s.expr.materialize(c), s.emptyGreatest).productIterator
      })
    }
    val keyFields  = specs.indices.flatMap(i => KeyEncoder.fields(s"k$i"))
    val cellFields = kept.indices.map(i => StructField(s"c$i", BinaryType))
    // The type-discovery pass, the range sampling and the sort all read the
    // encoded rows — cache them so the input is not recomputed.
    val df = ctx.persistForQuery(SparkSession.active.createDataFrame(
      rows, StructType(keyFields ++ cellFields)))
    // §4.8's type pass in one job: per partition a bitmask of the ranks
    // each spec's keys take, OR-merged here
    val n = specs.size
    val masks = df.select(specs.indices.map(i => col(s"k${i}_r")): _*).rdd.mapPartitions { rows =>
      val m = new Array[Int](n)
      rows.foreach(r => for (i <- 0 until n) m(i) |= 1 << r.getInt(i))
      Iterator.single(m)
    }.collect().foldLeft(new Array[Int](n))((a, b) => a.zip(b).map { case (x, y) => x | y })
    for (i <- 0 until n) KeyEncoder.checkOrderRanks(masks(i), i)
    val order = specs.zipWithIndex.flatMap { case (spec, i) =>
      KeyEncoder.fields(s"k$i").map(f => if (spec.descending) col(f.name).desc else col(f.name).asc)
    }
    df.repartitionByRange(math.max(1, tuples.getNumPartitions), order: _*)
      .sortWithinPartitions(order: _*)
  }

  def tupleRdd(ctx: DynamicContext, read: Option[Set[String]]): RDD[FlworTuple] = {
    val cs = kept
    sortedFrame(ctx, read).select(cs.indices.map(i => col(s"c$i")): _*).rdd
      .map(TupleSchema.tupleFromRow(_, cs))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] = {
    val buf   = scala.collection.mutable.ArrayBuffer.empty[(FlworTuple, Array[(Int, String)])]
    val masks = new Array[Int](specs.size) // the ranks of each spec's keys, as `sortedFrame`'s
    input.tupleIterator(ctx).foreach { t =>
      HeapModel.check(ctx.conf.heapModelCap, buf.size + 1L)
      val keys = specs.map { spec =>
        KeyEncoder.encodeOrder(spec.expr.materialize(ctx.bindAll(t.bindings)), spec.emptyGreatest)
      }.toArray
      for (i <- keys.indices) masks(i) |= 1 << keys(i)._1
      buf += ((t, keys))
    }
    for (i <- masks.indices) KeyEncoder.checkOrderRanks(masks(i), i)
    // the first spec whose keys differ decides, in its direction
    val sorted = buf.sortWith { (a, b) =>
      val i = specs.indices.indexWhere(i => KeyEncoder.compare(a._2(i), b._2(i)) != 0)
      i >= 0 && (KeyEncoder.compare(a._2(i), b._2(i)) < 0) != specs(i).descending
    }
    sorted.iterator.map(_._1)
  }
}

/** `count $v` (paper §4.9): the tuple RDD's `zipWithIndex`, the technique
  * the paper uses because DataFrames lack it. */
final class CountClauseIterator(input: ClauseIterator, varName: String) extends ClauseIterator {

  def parent: Option[ClauseIterator] = Some(input)
  val vars: Vector[String]           = binding(varName)

  def tupleRdd(ctx: DynamicContext, read: Option[Set[String]]): RDD[FlworTuple] = {
    val v = varName
    input.tupleRdd(ctx, read).zipWithIndex().map { case (t, i) => t.updated(v, List(IntItem(i + 1))) }
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] =
    input.tupleIterator(ctx).zipWithIndex.map { case (t, i) =>
      t.updated(varName, List(IntItem(i + 1L)))
    }
}

/** How a FLWOR runs: locally through the clauses' tuple iterators
  * (`Local`); on Spark as an RDD of live tuples (`Tuples`), which for
  * `for … where … return` is the paper's Figure-9 lineage (`for` → map,
  * `where` → filter, `return` → flatMap, §5.7); or as
  * that RDD encoded into the paper's DataFrame at each `group by` /
  * `order by` (`DataFrame`, §4.7–4.8). */
object FlworPath extends Enumeration {
  val Local, Tuples, DataFrame = Value
}

/** The whole FLWOR expression (clause chain + `return`, paper §4.10): an
  * *expression* iterator producing items, run on the path [[path]] picks.
  * On `Tuples` and `DataFrame`, `return` flat-maps the last clause's tuple
  * RDD. On `Local` it consumes the clauses' tuples.
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
final class FlworIterator(val last: ClauseIterator, retExpr: RuntimeIterator,
                          singletonReturn: Boolean, clauseKeys: Option[Set[String]],
                          allKeys: Option[Set[String]])
    extends RuntimeIterator {

  /** The clause chain, first clause first. */
  private val clauses: List[ClauseIterator] =
    List.unfold(Option(last))(_.map(c => (c, c.parent))).reverse

  /** The one decision of how this FLWOR runs in `ctx`: `Local` inside a
    * closure or unless the first clause is a `for` over an RDD-capable
    * expression; `DataFrame` when a clause shuffles; `Tuples` otherwise. */
  def path(ctx: DynamicContext): FlworPath.Value = clauses.head match {
    case f: ForClauseIterator if !ctx.insideClosure && f.expr.isRDD(ctx) =>
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

  override def isRDD(ctx: DynamicContext): Boolean = path(ctx) != FlworPath.Local

  override def getRDD(ctx: DynamicContext): RDD[Item] =
    if (!isRDD(ctx)) super.getRDD(ctx)
    else {
      val base = ctx.enterClosure
      val re   = retExpr
      last.tupleRdd(ctx, keptKeys(counting = false))
        .flatMap(t => re.localIterator(base.bindAll(t.bindings)))
    }

  protected def compute(ctx: DynamicContext): Iterator[Item] =
    last.tupleIterator(ctx).flatMap(t => retExpr.localIterator(ctx.bindAll(t.bindings)))

  /** Counts the tuples when the return yields one item each. */
  override def count(ctx: DynamicContext): Long =
    if (singletonReturn && isRDD(ctx)) last.tupleRdd(ctx, keptKeys(counting = true)).count()
    else super.count(ctx)
}
