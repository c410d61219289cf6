package repro.core.runtime.flwor

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{array, col, collect_list, collect_set, explode, first, udf}
import org.apache.spark.sql.types.{BinaryType, StructField, StructType}
import repro.core.model._
import repro.core.runtime._
import scala.jdk.CollectionConverters._

/** Base of all FLWOR clause runtime iterators (paper §4.2–4.10, §5.8).
  *
  * A clause consumes the tuple stream of its parent clause and produces its
  * own. Two execution paths, switched seamlessly:
  *
  *  - '''local''' (`tupleIterator`): pull-based stream of [[FlworTuple]]s;
  *  - '''DataFrame''' (`isDataFrame`/`getDataFrame`): the tuple stream as a
  *    DataFrame with one BinaryType column per variable (serialized item
  *    sequence), per [[TupleSchema]]. Nested JSONiq expressions are
  *    evaluated by UDFs that carry the serialized runtime iterators in
  *    their closure and run them through the local API on the executors.
  */
abstract class ClauseIterator extends Serializable {
  def outSchema: TupleSchema
  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple]
  def isDataFrame(ctx: DynamicContext): Boolean
  def getDataFrame(ctx: DynamicContext): DataFrame

  /** The UDF argument carrying the cells of `reads`, in that order: a clause
    * UDF decodes only the variables its expression reads. */
  protected final def cellsOf(inS: TupleSchema, reads: Seq[String]): Column =
    array(reads.map(v => col(inS.colOf(v))): _*)

  /** Project to exactly the out-schema columns, in schema order. */
  protected final def normalized(df: DataFrame): DataFrame =
    df.select(outSchema.cols.map(col): _*)

  /** Local fallback: consume the parent as tuples even if it is DF-backed
    * (used when a later clause cannot run on DataFrames). */
  protected final def parentTuples(p: ClauseIterator, ctx: DynamicContext): Iterator[FlworTuple] =
    if (p.isDataFrame(ctx)) {
      val schema = p.outSchema
      p.getDataFrame(ctx).toLocalIterator().asScala.map { row =>
        FlworTuple(schema.entries.indices.map { i =>
          schema.entries(i)._1 -> ItemSerde.deserializeSeq(row.getAs[Array[Byte]](i))
        }.toMap)
      }
    } else p.tupleIterator(ctx)
}

/** `for $v in expr` (paper §4.4). As the *initial* clause over an
  * RDD-capable expression, it converts the RDD of items into the initial
  * one-column DataFrame in parallel; as a later clause it is an extended
  * projection (UDF evaluating the bind expression) followed by EXPLODE.
  * `reads` lists the in-scope variables `expr` refers to (here and in the
  * other clauses). */
final class ForClauseIterator(
    parent: Option[ClauseIterator],
    varName: String,
    expr: RuntimeIterator,
    reads: Vector[String],
    val outSchema: TupleSchema,
    newCol: String,
) extends ClauseIterator {

  def isDataFrame(ctx: DynamicContext): Boolean = parent match {
    case Some(p) => p.isDataFrame(ctx)
    case None    => expr.isRDD(ctx)
  }

  def getDataFrame(ctx: DynamicContext): DataFrame = parent match {
    case None =>
      val rows = expr.getRDD(ctx).map(item => Row(ItemSerde.serializeItem(item)))
      SparkSession.active.createDataFrame(rows, outSchema.structType)
    case Some(p) =>
      val pdf  = p.getDataFrame(ctx)
      val vs   = reads
      val e    = expr
      val base = ctx.enterClosure
      val u = udf { (cells: Seq[Array[Byte]]) =>
        val c = TupleSchema.contextFromCells(cells, vs, base)
        e.materialize(c).map(ItemSerde.serializeItem)
      }
      normalized(pdf.withColumn(newCol, explode(u(cellsOf(p.outSchema, vs)))))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] = parent match {
    case None =>
      expr.localIterator(ctx).map(item => FlworTuple(Map(varName -> List(item))))
    case Some(p) =>
      parentTuples(p, ctx).flatMap { t =>
        expr.localIterator(ctx.bindAll(t.bindings)).map(i => t.updated(varName, List(i)))
      }
  }
}

/** `let $v := expr` (paper §4.5): extended projection without EXPLODE. As
  * the initial clause the execution stays local (paper: "If the let clause
  * is the first clause, we do not support the creation of a DataFrame"). */
final class LetClauseIterator(
    parent: Option[ClauseIterator],
    varName: String,
    expr: RuntimeIterator,
    reads: Vector[String],
    val outSchema: TupleSchema,
    newCol: String,
) extends ClauseIterator {

  def isDataFrame(ctx: DynamicContext): Boolean = parent.exists(_.isDataFrame(ctx))

  def getDataFrame(ctx: DynamicContext): DataFrame = {
    val p    = parent.get
    val pdf  = p.getDataFrame(ctx)
    val vs   = reads
    val e    = expr
    val base = ctx.enterClosure
    val u = udf { (cells: Seq[Array[Byte]]) =>
      val c = TupleSchema.contextFromCells(cells, vs, base)
      ItemSerde.serializeSeq(e.materialize(c))
    }
    normalized(pdf.withColumn(newCol, u(cellsOf(p.outSchema, vs))))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] = parent match {
    case None =>
      Iterator.single(FlworTuple(Map(varName -> expr.materialize(ctx))))
    case Some(p) =>
      parentTuples(p, ctx).map { t =>
        t.updated(varName, expr.materialize(ctx.bindAll(t.bindings)))
      }
  }
}

/** `where expr` (paper §4.6): selection via a UDF computing the EBV. */
final class WhereClauseIterator(input: ClauseIterator, expr: RuntimeIterator,
                                val reads: Vector[String])
    extends ClauseIterator {

  val outSchema: TupleSchema = input.outSchema

  def isDataFrame(ctx: DynamicContext): Boolean = input.isDataFrame(ctx)

  def getDataFrame(ctx: DynamicContext): DataFrame = {
    val pdf  = input.getDataFrame(ctx)
    val vs   = reads
    val e    = expr
    val base = ctx.enterClosure
    val u = udf { (cells: Seq[Array[Byte]]) =>
      e.effectiveBoolean(TupleSchema.contextFromCells(cells, vs, base))
    }
    normalized(pdf.filter(u(cellsOf(input.outSchema, vs))))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] =
    parentTuples(input, ctx).filter(t => expr.effectiveBoolean(ctx.bindAll(t.bindings)))
}

/** Encodes a grouping/sorting key sequence into the paper's three native
  * DataFrame columns (§4.7): a type rank, the string value, the number
  * value — "designed such that Spark SQL, only looking at these columns,
  * groups the rows the way required". */
object KeyEncoder {
  def encodeGroup(seq: List[Item]): (Int, String, Double) = {
    val rank = Item.groupTypeRank(seq)
    seq match {
      case List(s) if s.isString  => (rank, s.stringValue, 0.0)
      case List(n) if n.isNumeric => (rank, "", n.numericDouble)
      case _                      => (rank, "", 0.0)
    }
  }

  def encodeOrder(seq: List[Item], emptyGreatest: Boolean): (Int, String, Double) = {
    val rank = Item.orderTypeRank(seq, emptyGreatest)
    seq match {
      case List(s) if s.isString  => (rank, s.stringValue, 0.0)
      case List(n) if n.isNumeric => (rank, "", n.numericDouble)
      case _                      => (rank, "", 0.0)
    }
  }

  /** §4.8's first pass: all non-empty/non-null keys of one sort spec must
    * have a single comparable type (booleans count as one type; the
    * empty-sequence ranks 0/9 and the null rank 1 compare with anything). */
  def checkOrderRanks(ranks: Seq[Int], specIndex: Int): Unit = {
    val valueRanks = ranks.filter(r => r >= 2 && r <= 5).map(r => if (r == 3) 2 else r).distinct
    if (valueRanks.size > 1)
      throw new RumbleException(
        "XPTY0004", s"incompatible types in order-by key ${specIndex + 1}")
  }
}

/** One `order by` sort spec with its compiled key expression and the
  * in-scope variables that expression reads. */
final case class OrderSpec(expr: RuntimeIterator, descending: Boolean, emptyGreatest: Boolean,
                           reads: Vector[String])
    extends Serializable

/** How a non-grouping variable is aggregated by group-by (paper §4.7):
  * Rumble "detects if a non-grouping variable ... is aggregated as a count
  * rather than materialized — in this case COUNT() is invoked in Spark SQL
  * instead of materializing the non-grouping values", and drops variables
  * that are not used at all. */
object GroupAggMode extends Enumeration {
  val Materialize, CountOnly, Drop = Value
}

/** `group by $k, ...` (paper §4.7): per key variable an encoded
  * (type, string, number) column is added (in pure Scala, via a UDF); the
  * DataFrame is grouped on the encoded columns; non-grouping variables are
  * aggregated by concatenating their sequences (`SEQUENCE()` in the paper,
  * a merge UDF over `collect_list` here), by a COUNT, or dropped, per
  * [[GroupAggMode]]; key variables keep their first (all equal) binding.
  *
  * A CountOnly variable `v` is re-bound under the name `v#count` (the
  * translator rewrites downstream `count($v)` calls to `$v#count`).
  */
final class GroupByClauseIterator(
    input: ClauseIterator,
    keys: List[String],
    modes: Map[String, GroupAggMode.Value],
    val outSchema: TupleSchema,
) extends ClauseIterator {

  private val nonKeys: Vector[String] = input.outSchema.vars.filterNot(keys.contains)
  private def modeOf(v: String)       = modes.getOrElse(v, GroupAggMode.Materialize)

  def isDataFrame(ctx: DynamicContext): Boolean = input.isDataFrame(ctx)

  def getDataFrame(ctx: DynamicContext): DataFrame = {
    val inS = input.outSchema
    var df  = input.getDataFrame(ctx)
    val encUdf = udf { (b: Array[Byte]) => KeyEncoder.encodeGroup(ItemSerde.deserializeSeq(b)) }
    val encCols = keys.map { k =>
      val ec = "gk_" + inS.colOf(k)
      df = df.withColumn(ec, encUdf(col(inS.colOf(k))))
      ec
    }
    val mergeUdf = udf { (cells: Seq[Array[Byte]]) =>
      ItemSerde.serializeSeq(cells.toList.flatMap(ItemSerde.deserializeSeq))
    }
    // sequence length is the serde header — no need to deserialize items
    val lenUdf    = udf { (b: Array[Byte]) => ItemSerde.seqLength(b) }
    val serIntUdf = udf { (n: Long) => ItemSerde.serializeSeq(List(IntItem(n))) }
    val aggs: Seq[Column] = outSchema.vars.map { v =>
      val outCol = outSchema.colOf(v)
      if (keys.contains(v)) first(col(inS.colOf(v))).as(outCol)
      else if (v.endsWith("#count")) {
        val orig = v.stripSuffix("#count")
        serIntUdf(org.apache.spark.sql.functions.sum(lenUdf(col(inS.colOf(orig))))).as(outCol)
      } else mergeUdf(collect_list(col(inS.colOf(v)))).as(outCol)
    }
    normalized(df.groupBy(encCols.map(col): _*).agg(aggs.head, aggs.tail: _*))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] = {
    val kept    = nonKeys.filter(v => modeOf(v) == GroupAggMode.Materialize)
    val counted = nonKeys.filter(v => modeOf(v) == GroupAggMode.CountOnly)
    val groups = scala.collection.mutable.LinkedHashMap
      .empty[Vector[(Int, String, Double)],
             (FlworTuple, Array[scala.collection.mutable.ListBuffer[Item]], Array[Long])]
    var n = 0L
    parentTuples(input, ctx).foreach { t =>
      n += 1
      HeapModel.check(ctx, n)
      val key = keys.map(k => KeyEncoder.encodeGroup(t.bindings.getOrElse(k, Nil))).toVector
      groups.get(key) match {
        case None =>
          val bufs = kept.map { v =>
            val b = scala.collection.mutable.ListBuffer.empty[Item]
            b ++= t.bindings.getOrElse(v, Nil)
            b
          }.toArray
          val cnts = counted.map(v => t.bindings.getOrElse(v, Nil).size.toLong).toArray
          groups(key) = (t, bufs, cnts)
        case Some((_, bufs, cnts)) =>
          kept.indices.foreach(i => bufs(i) ++= t.bindings.getOrElse(kept(i), Nil))
          counted.indices.foreach(i => cnts(i) += t.bindings.getOrElse(counted(i), Nil).size)
      }
    }
    groups.valuesIterator.map { case (firstTuple, bufs, cnts) =>
      val kb = keys.map(k => k -> firstTuple.bindings.getOrElse(k, Nil))
      val vb = kept.indices.map(i => kept(i) -> bufs(i).toList)
      val cb = counted.indices.map(i => (counted(i) + "#count") -> List[Item](IntItem(cnts(i))))
      FlworTuple((kb ++ vb ++ cb).toMap)
    }
  }
}

/** `order by` (paper §4.8): a first pass discovers the key types and throws
  * on incompatibility; then encoded columns drive a Spark ORDER BY. */
final class OrderByClauseIterator(input: ClauseIterator, specs: List[OrderSpec])
    extends ClauseIterator {

  val outSchema: TupleSchema = input.outSchema

  def isDataFrame(ctx: DynamicContext): Boolean = input.isDataFrame(ctx)

  def getDataFrame(ctx: DynamicContext): DataFrame = {
    val base = ctx.enterClosure
    var df   = input.getDataFrame(ctx)
    val encCols = specs.zipWithIndex.map { case (spec, i) =>
      val e  = spec.expr
      val eg = spec.emptyGreatest
      val vs = spec.reads
      val u = udf { (cells: Seq[Array[Byte]]) =>
        KeyEncoder.encodeOrder(e.materialize(TupleSchema.contextFromCells(cells, vs, base)), eg)
      }
      val ec = s"ok_$i"
      df = df.withColumn(ec, u(cellsOf(input.outSchema, vs)))
      ec
    }
    // The type-discovery pass and the sort both consume the encoded tuple
    // stream — cache it so the input is not recomputed (read + parsed)
    // twice; it is released when the query's action has finished.
    df = ctx.persistForQuery(df)
    // First pass (one job): discover the value types of every sort key.
    val rankSets =
      df.select(encCols.map(ec => collect_set(col(ec + "._1")).as(ec)): _*).head()
    encCols.indices.foreach { i =>
      KeyEncoder.checkOrderRanks(rankSets.getSeq[Int](i), i)
    }
    val orderExprs = specs.zip(encCols).flatMap { case (spec, ec) =>
      Seq(col(ec + "._1"), col(ec + "._2"), col(ec + "._3"))
        .map(c => if (spec.descending) c.desc else c.asc)
    }
    normalized(df.orderBy(orderExprs: _*))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] = {
    val buf = scala.collection.mutable.ArrayBuffer.empty[(FlworTuple, Array[(Int, String, Double)])]
    parentTuples(input, ctx).foreach { t =>
      HeapModel.check(ctx, buf.size + 1L)
      val keys = specs.map { spec =>
        KeyEncoder.encodeOrder(spec.expr.materialize(ctx.bindAll(t.bindings)), spec.emptyGreatest)
      }.toArray
      buf += ((t, keys))
    }
    // type check across the whole stream, per spec
    specs.indices.foreach { i =>
      KeyEncoder.checkOrderRanks(buf.map(_._2(i)._1).distinct.toSeq, i)
    }
    val sorted = buf.sortWith { (a, b) => compareKeys(a._2, b._2) < 0 }
    sorted.iterator.map(_._1)
  }

  private def compareKeys(a: Array[(Int, String, Double)], b: Array[(Int, String, Double)]): Int = {
    var i = 0
    while (i < specs.size) {
      val (r1, s1, n1) = a(i)
      val (r2, s2, n2) = b(i)
      var c = Integer.compare(r1, r2)
      if (c == 0) c = s1.compareTo(s2)
      if (c == 0) c = java.lang.Double.compare(n1, n2)
      if (specs(i).descending) c = -c
      if (c != 0) return c
      i += 1
    }
    0
  }
}

/** `count $v` (paper §4.9): zipWithIndex is not available on DataFrames, so
  * the incremental-integer column is added via the underlying RDD (the
  * Glotov StackOverflow technique the paper cites). */
final class CountClauseIterator(
    input: ClauseIterator,
    varName: String,
    val outSchema: TupleSchema,
    newCol: String,
) extends ClauseIterator {

  def isDataFrame(ctx: DynamicContext): Boolean = input.isDataFrame(ctx)

  def getDataFrame(ctx: DynamicContext): DataFrame = {
    val pdf = input.getDataFrame(ctx)
    val rdd = pdf.rdd.zipWithIndex().map { case (row, i) =>
      Row.fromSeq(row.toSeq :+ ItemSerde.serializeSeq(List(IntItem(i + 1))))
    }
    val schema = StructType(pdf.schema.fields :+ StructField(newCol, BinaryType, nullable = true))
    normalized(SparkSession.active.createDataFrame(rdd, schema))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] =
    parentTuples(input, ctx).zipWithIndex.map { case (t, i) =>
      t.updated(varName, List(IntItem(i + 1L)))
    }
}

/** Fast path for FLWORs of shape `for $v in <expr> (where ...)* return r`
  * with a Spark-backed source: the paper's Figure-9 RDD mapping (`for` →
  * flatMap, `where` → filter) applied directly, with no tuple DataFrame —
  * the same execution the paper describes for pure navigation/filter
  * pipelines in §5.7 ("none of the intermediate sequences of items is
  * ever materialized"). Falls back to streaming local iteration on
  * forced-local engines.
  */
final class SimpleFlworRddIterator(
    varName: String,
    source: RuntimeIterator,
    wheres: List[RuntimeIterator],
    retExpr: RuntimeIterator,
    singletonReturn: Boolean,
) extends RuntimeIterator {

  override def isRDD(ctx: DynamicContext): Boolean = source.isRDD(ctx)

  /** The source items that pass every `where`, as an RDD. */
  private def selected(ctx: DynamicContext): org.apache.spark.rdd.RDD[Item] = {
    val v    = varName
    val ws   = wheres
    val base = ctx.enterClosure
    source.getRDD(ctx).filter { item =>
      val c = base.bind(v, item :: Nil)
      ws.forall(_.effectiveBoolean(c))
    }
  }

  override def getRDD(ctx: DynamicContext): org.apache.spark.rdd.RDD[Item] = {
    val v    = varName
    val re   = retExpr
    val base = ctx.enterClosure
    selected(ctx).flatMap(item => re.localIterator(base.bind(v, item :: Nil)))
  }

  protected def compute(ctx: DynamicContext): Iterator[Item] =
    source.localIterator(ctx)
      .filter { item =>
        val c = ctx.bind(varName, item :: Nil)
        wheres.forall(_.effectiveBoolean(c))
      }
      .flatMap(item => retExpr.localIterator(ctx.bind(varName, item :: Nil)))

  /** Counts the selected source items without evaluating the return
    * expression when it provably yields one item per input (see
    * FlworIterator). */
  override def count(ctx: DynamicContext): Long =
    if (singletonReturn && isRDD(ctx)) selected(ctx).count() else super.count(ctx)
}

/** The whole FLWOR expression (clause chain + `return`, paper §4.10): an
  * *expression* iterator producing items. When the last clause provides a
  * DataFrame, `return` maps it to an RDD of items with a flatMap; otherwise
  * it consumes tuples through the local API.
  *
  * @param retReads the in-scope variables the return expression reads; the
  *        DataFrame-to-RDD flatMap decodes only their columns
  * @param singletonReturn the translator proved the return expression
  *        yields exactly one item per tuple (a for-bound variable, an
  *        object/array constructor, a literal); a consuming `count()` can
  *        then run as a DataFrame count without materializing any item —
  *        the same aggregation-detection family as the paper's §4.7
  *        COUNT pushdown.
  */
final class FlworIterator(val last: ClauseIterator, retExpr: RuntimeIterator,
                          retReads: Vector[String], singletonReturn: Boolean = false)
    extends RuntimeIterator {

  override def isRDD(ctx: DynamicContext): Boolean =
    !ctx.insideClosure && last.isDataFrame(ctx)

  override def getRDD(ctx: DynamicContext): org.apache.spark.rdd.RDD[Item] = {
    val schema = last.outSchema.restrictedTo(retReads)
    val df     = last.getDataFrame(ctx).select(schema.cols.map(col): _*)
    val base   = ctx.enterClosure
    val re     = retExpr
    df.rdd.mapPartitions { rows =>
      rows.flatMap(row => re.materialize(TupleSchema.contextFromRow(row, schema, base)))
    }
  }

  protected def compute(ctx: DynamicContext): Iterator[Item] =
    last.tupleIterator(ctx).flatMap(t => retExpr.localIterator(ctx.bindAll(t.bindings)))

  /** Counts the DataFrame's tuples when the return yields one item each. */
  override def count(ctx: DynamicContext): Long =
    if (singletonReturn && isRDD(ctx)) last.getDataFrame(ctx).count() else super.count(ctx)
}
