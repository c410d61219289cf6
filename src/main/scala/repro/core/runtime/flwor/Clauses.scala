package repro.core.runtime.flwor

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{array, col, collect_list, collect_set, explode, first, udf}
import org.apache.spark.sql.types.{BinaryType, StructField, StructType}
import repro.core.model._
import repro.core.runtime._

/** Base of all FLWOR clause runtime iterators (paper §4.2–4.10, §5.8).
  *
  * A clause consumes the tuple stream of its parent clause and produces its
  * own, in the form [[FlworIterator.path]] chooses for the whole chain:
  *
  *  - '''local''' (`tupleIterator`): pull-based stream of [[FlworTuple]]s;
  *  - '''DataFrame''' (`getDataFrame`): the tuple stream as a DataFrame with
  *    one BinaryType column per variable (serialized item sequence), per
  *    [[TupleSchema]]. Nested JSONiq expressions are evaluated by UDFs that
  *    carry the serialized runtime iterators in their closure and run them
  *    through the local API on the executors.
  */
abstract class ClauseIterator extends Serializable {
  /** The previous clause; `None` for the first clause of the FLWOR. */
  def parent: Option[ClauseIterator]
  def outSchema: TupleSchema
  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple]
  def getDataFrame(ctx: DynamicContext): DataFrame

  /** The UDF argument carrying the cells of `reads`, in that order: a clause
    * UDF decodes only the variables its expression reads. */
  protected final def cellsOf(inS: TupleSchema, reads: Seq[String]): Column =
    array(reads.map(v => col(inS.colOf(v))): _*)

  /** Project to exactly the out-schema columns, in schema order. */
  protected final def normalized(df: DataFrame): DataFrame =
    df.select(outSchema.cols.map(col): _*)
}

/** `for $v in expr` (paper §4.4). As the *initial* clause over an
  * RDD-capable expression, it converts the RDD of items into the initial
  * one-column DataFrame in parallel; as a later clause it is an extended
  * projection (UDF evaluating the bind expression) followed by EXPLODE.
  * `reads` lists the in-scope variables `expr` refers to (here and in the
  * other clauses). */
final class ForClauseIterator(
    val parent: Option[ClauseIterator],
    val varName: String,
    val expr: RuntimeIterator,
    reads: Vector[String],
    val outSchema: TupleSchema,
    newCol: String,
) extends ClauseIterator {

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
      p.tupleIterator(ctx).flatMap { t =>
        expr.localIterator(ctx.bindAll(t.bindings)).map(i => t.updated(varName, List(i)))
      }
  }
}

/** `let $v := expr` (paper §4.5): extended projection without EXPLODE. As
  * the initial clause the execution stays local (paper: "If the let clause
  * is the first clause, we do not support the creation of a DataFrame"). */
final class LetClauseIterator(
    val parent: Option[ClauseIterator],
    varName: String,
    expr: RuntimeIterator,
    reads: Vector[String],
    val outSchema: TupleSchema,
    newCol: String,
) extends ClauseIterator {

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
      p.tupleIterator(ctx).map { t =>
        t.updated(varName, expr.materialize(ctx.bindAll(t.bindings)))
      }
  }
}

/** `where expr` (paper §4.6): selection via a UDF computing the EBV. */
final class WhereClauseIterator(input: ClauseIterator, val expr: RuntimeIterator,
                                val reads: Vector[String])
    extends ClauseIterator {

  def parent: Option[ClauseIterator] = Some(input)
  val outSchema: TupleSchema = input.outSchema

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
    input.tupleIterator(ctx).filter(t => expr.effectiveBoolean(ctx.bindAll(t.bindings)))
}

/** Encodes a grouping/sorting key sequence into the paper's three native
  * DataFrame columns (§4.7): a type rank, the string value, the number
  * value — "designed such that Spark SQL, only looking at these columns,
  * groups the rows the way required". */
object KeyEncoder {
  def encodeGroup(seq: List[Item]): (Int, String, Double) =
    encode(Item.groupTypeRank(seq), seq)

  def encodeOrder(seq: List[Item], emptyGreatest: Boolean): (Int, String, Double) =
    encode(Item.orderTypeRank(seq, emptyGreatest), seq)

  private def encode(rank: Int, seq: List[Item]): (Int, String, Double) = seq match {
    case List(s) if s.isString  => (rank, s.stringValue, 0.0)
    case List(n) if n.isNumeric => (rank, "", n.numericDouble)
    case _                      => (rank, "", 0.0)
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

  def parent: Option[ClauseIterator] = Some(input)

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
    input.tupleIterator(ctx).foreach { t =>
      n += 1
      HeapModel.check(ctx.conf.heapModelCap, n)
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

  def parent: Option[ClauseIterator] = Some(input)
  val outSchema: TupleSchema = input.outSchema

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
    input.tupleIterator(ctx).foreach { t =>
      HeapModel.check(ctx.conf.heapModelCap, buf.size + 1L)
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

  def parent: Option[ClauseIterator] = Some(input)

  def getDataFrame(ctx: DynamicContext): DataFrame = {
    val pdf = input.getDataFrame(ctx)
    val rdd = pdf.rdd.zipWithIndex().map { case (row, i) =>
      Row.fromSeq(row.toSeq :+ ItemSerde.serializeSeq(List(IntItem(i + 1))))
    }
    val schema = StructType(pdf.schema.fields :+ StructField(newCol, BinaryType, nullable = true))
    normalized(SparkSession.active.createDataFrame(rdd, schema))
  }

  def tupleIterator(ctx: DynamicContext): Iterator[FlworTuple] =
    input.tupleIterator(ctx).zipWithIndex.map { case (t, i) =>
      t.updated(varName, List(IntItem(i + 1L)))
    }
}

/** How a FLWOR runs: locally through the clauses' tuple iterators; as the
  * paper's Figure-9 RDD mapping (`for` → flatMap, `where` → filter, §5.7);
  * or as a DataFrame tuple stream (§4.3–4.10). */
object FlworPath extends Enumeration {
  val Local, Rdd, DataFrame = Value
}

/** The whole FLWOR expression (clause chain + `return`, paper §4.10): an
  * *expression* iterator producing items, run on the path [[path]] picks.
  * On `Rdd` the initial `for`'s source RDD is filtered by the `where`
  * clauses and flat-mapped by `return`, with no tuple DataFrame ("none of
  * the intermediate sequences of items is ever materialized"). On
  * `DataFrame`, `return` maps the last clause's DataFrame to an RDD of
  * items with a flatMap. On `Local` it consumes the clauses' tuples.
  *
  * @param retReads the in-scope variables the return expression reads; the
  *        DataFrame-to-RDD flatMap decodes only their columns
  * @param singletonReturn the translator proved the return expression
  *        yields exactly one item per tuple (a for-bound variable, an
  *        object/array constructor, a literal); a consuming `count()` can
  *        then count the selected items or the DataFrame's tuples without
  *        materializing any item — the same aggregation-detection family
  *        as the paper's §4.7 COUNT pushdown.
  */
final class FlworIterator(val last: ClauseIterator, retExpr: RuntimeIterator,
                          retReads: Vector[String], singletonReturn: Boolean = false)
    extends RuntimeIterator {

  /** The clause chain, first clause first. */
  private val clauses: List[ClauseIterator] =
    List.unfold(Option(last))(_.map(c => (c, c.parent))).reverse

  /** The one decision of how this FLWOR runs in `ctx`: `Local` inside a
    * closure or unless the first clause is a `for` over an RDD-capable
    * expression; `Rdd` when that `for` is followed only by `where`
    * clauses; `DataFrame` otherwise. */
  def path(ctx: DynamicContext): FlworPath.Value = clauses.head match {
    case f: ForClauseIterator if !ctx.insideClosure && f.expr.isRDD(ctx) =>
      if (clauses.tail.forall(_.isInstanceOf[WhereClauseIterator])) FlworPath.Rdd
      else FlworPath.DataFrame
    case _ => FlworPath.Local
  }

  private def initialFor: ForClauseIterator = clauses.head.asInstanceOf[ForClauseIterator]

  /** On `Rdd`: the source items that pass every `where`. */
  private def selected(ctx: DynamicContext): org.apache.spark.rdd.RDD[Item] = {
    val v    = initialFor.varName
    val ws   = clauses.tail.collect { case w: WhereClauseIterator => w.expr }
    val base = ctx.enterClosure
    initialFor.expr.getRDD(ctx).filter { item =>
      val c = base.bind(v, item :: Nil)
      ws.forall(_.effectiveBoolean(c))
    }
  }

  override def isRDD(ctx: DynamicContext): Boolean = path(ctx) != FlworPath.Local

  override def getRDD(ctx: DynamicContext): org.apache.spark.rdd.RDD[Item] = {
    val base = ctx.enterClosure
    val re   = retExpr
    path(ctx) match {
      case FlworPath.Rdd =>
        val v = initialFor.varName
        selected(ctx).flatMap(item => re.localIterator(base.bind(v, item :: Nil)))
      case FlworPath.DataFrame =>
        val schema = last.outSchema.restrictedTo(retReads)
        val df     = last.getDataFrame(ctx).select(schema.cols.map(col): _*)
        df.rdd.mapPartitions { rows =>
          rows.flatMap(row => re.materialize(TupleSchema.contextFromRow(row, schema, base)))
        }
      case FlworPath.Local => super.getRDD(ctx)
    }
  }

  protected def compute(ctx: DynamicContext): Iterator[Item] =
    last.tupleIterator(ctx).flatMap(t => retExpr.localIterator(ctx.bindAll(t.bindings)))

  /** Counts the selected items or the DataFrame's tuples when the return
    * yields one item each. */
  override def count(ctx: DynamicContext): Long = path(ctx) match {
    case FlworPath.Rdd if singletonReturn       => selected(ctx).count()
    case FlworPath.DataFrame if singletonReturn => last.getDataFrame(ctx).count()
    case _                                      => super.count(ctx)
  }
}
