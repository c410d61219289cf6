package repro.core.runtime

import scala.reflect.ClassTag
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import repro.core.json.JsonParser
import repro.core.model._
import repro.core.runtime.flwor.KeyEncoder

/** A source of items that Spark can distribute (paper §5.7): an RDD outside
  * closures unless the engine is forced local. Its optional `partitions`
  * argument must be one positive integer, on both paths (XPTY0004). */
abstract class SourceIterator(partitionsArg: Option[RuntimeIterator]) extends RuntimeIterator {
  override def isRDD(ctx: DynamicContext): Boolean = !ctx.conf.forceLocal && !ctx.insideClosure

  /** The partition count asked for, if any; both paths evaluate it. */
  protected def partitions(ctx: DynamicContext): Option[Int] =
    partitionsArg.map(_.materializeAtMostOne(ctx) match {
      case Some(IntItem(n)) if n > 0 && n <= Int.MaxValue => n.toInt
      case other => throw new RumbleException(
        "XPTY0004", s"partitions must be a positive integer, got ${other.getOrElse("()")}")
    })
}

/** `json-file(path[, partitions])` (paper §5.7): reads JSON-Lines files as
  * a sequence of items. Both paths read the files `JsonParser.inputFiles`
  * lists for `path`, in its order; a path that matches no file raises
  * FODC0002. On the RDD path it is `JsonParser.readLines`, which parses each
  * Hadoop `Text` record from its bytes, in `partitions` partitions or else
  * Spark's default parallelism; on the local path (forced-local engines,
  * closures) `JsonParser.readFiles` reads the files without Spark, splitting
  * and parsing their lines the same way. A line that is not JSON raises
  * JNDY0021 naming the file and the line (its byte offset on Spark, its
  * number locally).
  */
final class JsonFileIterator(pathExpr: RuntimeIterator, partitionsArg: Option[RuntimeIterator])
    extends SourceIterator(partitionsArg) {

  private def path(ctx: DynamicContext): String =
    pathExpr.materializeAtMostOne(ctx) match {
      case Some(s) if s.isString => s.stringValue
      case other => throw new RumbleException("FODC0002", s"json-file needs a path, got $other")
    }

  override def getRDD(ctx: DynamicContext): RDD[Item] = getRDD(ctx, None)

  /** The items, of each object line only the top-level `keys` when given:
    * the read a FLWOR's initial `for` projects (see `FlworIterator.keptKeys`). */
  def getRDD(ctx: DynamicContext, keys: Option[Set[String]]): RDD[Item] = {
    val sc = SparkSession.active.sparkContext
    JsonParser.readLines(sc, path(ctx), partitions(ctx).getOrElse(sc.defaultParallelism), keys)
  }

  protected def compute(ctx: DynamicContext): Iterator[Item] = {
    partitions(ctx)
    JsonParser.readFiles(path(ctx))
  }
}

/** `parallelize(e[, partitions])`: materializes the child sequence on the
  * driver and distributes it as an RDD of items (paper §5.7), triggering
  * Spark-enabled behaviour downstream. */
final class ParallelizeIterator(child: RuntimeIterator, partitionsArg: Option[RuntimeIterator])
    extends SourceIterator(partitionsArg) {
  override def getRDD(ctx: DynamicContext): RDD[Item] = {
    val sc = SparkSession.active.sparkContext
    sc.parallelize(child.materialize(ctx), partitions(ctx).getOrElse(sc.defaultParallelism))
  }
  protected def compute(ctx: DynamicContext): Iterator[Item] = {
    partitions(ctx)
    child.localIterator(ctx)
  }
}

/** A builtin function: the range of argument counts it accepts and the
  * constructor of its runtime iterator. */
final case class Builtin(minArgs: Int, maxArgs: Int,
                         make: List[RuntimeIterator] => RuntimeIterator) {
  def arity: String =
    if (minArgs == maxArgs) s"$minArgs"
    else if (maxArgs == Int.MaxValue) s"$minArgs or more"
    else s"$minArgs to $maxArgs"
}

/** A call of a builtin or an operator whose result `body` computes from
  * the argument iterators. Aggregations over RDD-backed arguments run as Spark actions
  * (count/sum/... on the cluster, §4.1.2 / §5.5) and return a local
  * singleton — invisible to the caller. */
final class FunctionIterator(args: List[RuntimeIterator], body: Builtins.Body)
    extends RuntimeIterator {
  protected def compute(ctx: DynamicContext): Iterator[Item] = body(args, ctx)
}

/** The value comparison written `symbol`, as the orders it holds for; two
  * numbers that a NaN leaves unordered satisfy only `ne` (XQuery). */
final class ValueComparison(symbol: String) extends Serializable {
  private val (lt, eq, gt) =
    (Set("lt", "le", "ne")(symbol), Set("eq", "le", "ge")(symbol), Set("gt", "ge", "ne")(symbol))
  def holds(c: Int): Boolean =
    if (c == Numeric.Unordered) lt && gt else if (c < 0) lt else if (c > 0) gt else eq
}

/** The builtin function library. The translator resolves every function
  * call here (§5.4), so an unknown name or an argument count outside the
  * builtin's range is a static error (XPST0017) raised before execution. */
object Builtins {

  /** A builtin's semantics: argument iterators and context in, items out. */
  type Body = (List[RuntimeIterator], DynamicContext) => Iterator[Item]

  private def fn(minArgs: Int, maxArgs: Int)(body: Body): Builtin =
    Builtin(minArgs, maxArgs, new FunctionIterator(_, body))
  private def unary(body: Body): Builtin = fn(1, 1)(body)

  val registry: Map[String, Builtin] = Map(
    "json-file"   -> Builtin(1, 2, a => new JsonFileIterator(a.head, a.lift(1))),
    "parallelize" -> Builtin(1, 2, a => new ParallelizeIterator(a.head, a.lift(1))),
    // aggregates
    "count"           -> unary((a, ctx) => Iterator.single(IntItem(a.head.count(ctx)))),
    "sum"             -> unary(sum),
    "avg"             -> unary(avg),
    "min"             -> unary(extreme(-1)),
    "max"             -> unary(extreme(1)),
    "empty"           -> unary((a, ctx) => Iterator.single(BooleanItem(!nonEmpty(a.head, ctx)))),
    "exists"          -> unary((a, ctx) => Iterator.single(BooleanItem(nonEmpty(a.head, ctx)))),
    "distinct-values" -> unary(distinctValues),
    // sequences
    "head"        -> unary((a, ctx) =>
      if (a.head.isRDD(ctx)) a.head.getRDD(ctx).take(1).iterator
      else a.head.localIterator(ctx).take(1)),
    "tail"        -> unary((a, ctx) => a.head.localIterator(ctx).drop(1)),
    "subsequence" -> fn(2, 3)(subsequence),
    // objects and arrays
    "keys" -> unary((a, ctx) => a.head.localIterator(ctx).flatMap {
      case o: ObjectItem => o.keys.map(StringItem.apply)
      case _             => Vector.empty
    }),
    "values" -> unary((a, ctx) => a.head.localIterator(ctx).flatMap {
      case ObjectItem(fields) => fields.map(_._2)
      case _                  => Vector.empty
    }),
    "size" -> unary((a, ctx) => a.head.materializeAtMostOne(ctx) match {
      case None                => Iterator.empty
      case Some(ArrayItem(vs)) => Iterator.single(IntItem(vs.size))
      case Some(other) =>
        throw new RumbleException("XPTY0004", s"size() expects an array, got $other")
    }),
    // scalars
    "string"   -> unary((a, ctx) => Iterator.single(StringItem(str(a.head, ctx)))),
    "integer"  -> unary(integer),
    "double"   -> unary(double),
    "number"   -> unary(double),
    "boolean"  -> unary((a, ctx) => Iterator.single(BooleanItem(a.head.effectiveBoolean(ctx)))),
    "not"      -> unary((a, ctx) => Iterator.single(BooleanItem(!a.head.effectiveBoolean(ctx)))),
    "abs"      -> unary((a, ctx) => a.head.materializeAtMostOne(ctx).iterator.map(Numeric.abs)),
    "round"    -> fn(1, 2)(round),
    // strings
    "string-length" -> unary { (a, ctx) =>
      val s = str(a.head, ctx)
      Iterator.single(IntItem(s.codePointCount(0, s.length).toLong))
    },
    "substring"     -> fn(2, 3)(substring),
    "lower-case"    -> unary((a, ctx) => Iterator.single(StringItem(str(a.head, ctx).toLowerCase))),
    "upper-case"    -> unary((a, ctx) => Iterator.single(StringItem(str(a.head, ctx).toUpperCase))),
    "contains"      -> fn(2, 2)((a, ctx) =>
      Iterator.single(BooleanItem(str(a(0), ctx).contains(str(a(1), ctx))))),
    "starts-with"   -> fn(2, 2)((a, ctx) =>
      Iterator.single(BooleanItem(str(a(0), ctx).startsWith(str(a(1), ctx))))),
    "concat"        -> fn(0, Int.MaxValue)((a, ctx) =>
      Iterator.single(StringItem(a.map(str(_, ctx)).mkString))),
    "string-join"   -> fn(1, 2)((a, ctx) =>
      Iterator.single(StringItem(
        a.head.localIterator(ctx).map(_.castToString).mkString(a.lift(1).fold("")(str(_, ctx)))))),
  )

  /** The operators by `OperatorExpr` name: F&O defines each as a function
    * (`op:numeric-add`, …), so each is a builtin body, built once here. They
    * stay out of [[registry]]: `eq(1, 2)` calls no function, XPST0017. */
  val operators: Map[String, Builtin] = Map(
    "or"  -> fn(2, 2)((a, ctx) =>
      Iterator.single(BooleanItem(a(0).effectiveBoolean(ctx) || a(1).effectiveBoolean(ctx)))),
    "and" -> fn(2, 2)((a, ctx) =>
      Iterator.single(BooleanItem(a(0).effectiveBoolean(ctx) && a(1).effectiveBoolean(ctx)))),
    "||"  -> fn(2, 2)((a, ctx) => Iterator.single(StringItem(str(a(0), ctx) + str(a(1), ctx)))),
    "to"  -> binary(range),
    "unary-minus" -> unary((a, ctx) => a.head.materializeAtMostOne(ctx).iterator.map(Numeric.negate)),
    "unary-plus"  -> unary((a, ctx) => a.head.materializeAtMostOne(ctx).iterator.map { x =>
      if (x.isNumeric) x else throw new RumbleException("XPTY0004", s"not a number: $x")
    }),
  ) ++ Seq(Arithmetic.Add, Arithmetic.Subtract, Arithmetic.Multiply,
           Arithmetic.Div, Arithmetic.IDiv, Arithmetic.Mod).map { op =>
    op.toString -> binary((x, y) => Iterator.single(op(x, y)))
  } ++ Seq("eq", "ne", "lt", "le", "gt", "ge").map { symbol =>
    val op = new ValueComparison(symbol)
    symbol -> binary((x, y) => Iterator.single(BooleanItem(op.holds(KeyEncoder.compareAtomics(x, y)))))
  }

  /** The runtime iterator of a call to `name`, or XPST0017 if no builtin
    * of that name takes `args.size` arguments. */
  def resolve(name: String, args: List[RuntimeIterator]): RuntimeIterator =
    registry.get(name) match {
      case None => throw new StaticException("XPST0017", s"unknown function: $name()")
      case Some(b) if args.size < b.minArgs || args.size > b.maxArgs =>
        throw new StaticException(
          "XPST0017", s"$name() expects ${b.arity} argument(s), got ${args.size}")
      case Some(b) => b.make(args)
    }

  /** The string value of an at-most-one argument; "" when empty. */
  private def str(a: RuntimeIterator, ctx: DynamicContext): String =
    a.materializeAtMostOne(ctx).map(_.castToString).getOrElse("")

  private def nonEmpty(a: RuntimeIterator, ctx: DynamicContext): Boolean =
    if (a.isRDD(ctx)) !a.getRDD(ctx).isEmpty() else a.localIterator(ctx).hasNext

  /** An operator on one item of each operand; an empty operand gives the empty sequence. */
  private def binary(op: (Item, Item) => Iterator[Item]): Builtin = fn(2, 2) { (a, ctx) =>
    (a(0).materializeAtMostOne(ctx), a(1).materializeAtMostOne(ctx)) match {
      case (Some(x), Some(y)) => op(x, y)
      case _                  => Iterator.empty
    }
  }

  /** `a to b`: the integers from a to b, none when a > b. */
  private def range(a: Item, b: Item): Iterator[Item] = (a, b) match {
    case (IntItem(lo), IntItem(hi)) => (lo to hi).iterator.map(IntItem.apply)
    case _ => throw new RumbleException("XPTY0004", s"'to' requires integers, got $a and $b")
  }

  // ----------------------------------------------------------- aggregates

  /** Fold the items of `a` with `add`: locally in order, or on an RDD as
    * one Spark job that folds each partition and merges the partition
    * results in partition order, so ties and rounding match the local
    * fold's order whatever order the tasks finish in. */
  private def aggregate[A: ClassTag](a: RuntimeIterator, ctx: DynamicContext, zero: A)
                                    (add: (A, Item) => A, merge: (A, A) => A): A =
    if (a.isRDD(ctx))
      a.getRDD(ctx).mapPartitions(it => Iterator.single(it.foldLeft(zero)(add)))
        .collect().foldLeft(zero)(merge)
    else a.localIterator(ctx).foldLeft(zero)(add)

  /** The sum of `a`'s items, a fold of `+` (exact for integers and
    * decimals), and their count. */
  private def total(a: List[RuntimeIterator], ctx: DynamicContext): (Item, Long) =
    aggregate(a.head, ctx, (IntItem(0): Item, 0L))(
      { case ((s, n), i) => (Arithmetic.Add(s, i), n + 1) },
      { case ((s1, n1), (s2, n2)) => (Arithmetic.Add(s1, s2), n1 + n2) })

  private def sum(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] =
    Iterator.single(total(a, ctx)._1)

  /** F&O: the average of integers is a decimal. */
  private def avg(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] = {
    val (s, n) = total(a, ctx)
    if (n == 0) Iterator.empty else Iterator.single(Arithmetic.Div(s, DecimalItem(BigDecimal(n))))
  }

  /** `min` (sign -1) or `max` (sign 1) of the items promoted to one type
    * (F&O). Two numbers compare by their exact values ([[KeyEncoder.key]]),
    * a total order, so the answer does not depend on the Spark partitioning;
    * the result is a double when any item was one, which is the extreme of
    * the promoted items since rounding to a double is monotone. Ties keep the
    * earlier item, and the first NaN wins. */
  private def extreme(sign: Int): Body = (a, ctx) => {
    def nan(i: Item) = i.numericDouble.isNaN
    def wins(i: Item, best: Item): Boolean =
      if (!i.isNumeric || !best.isNumeric) Integer.signum(KeyEncoder.compareAtomics(i, best)) == sign
      else if (nan(i) || nan(best)) !nan(best)
      else Integer.signum(KeyEncoder.compare(KeyEncoder.key(i), KeyEncoder.key(best))) == sign
    // the extreme so far, and whether a double was seen
    val pick: ((Option[Item], Boolean), (Option[Item], Boolean)) => (Option[Item], Boolean) = {
      case ((Some(best), d), (Some(i), e)) => (Some(if (wins(i, best)) i else best), d || e)
      case ((best, d), (x, e))             => (best.orElse(x), d || e)
    }
    val (best, sawDouble) = aggregate(a.head, ctx, (Option.empty[Item], false))(
      (acc, i) => pick(acc, (Some(i), i.isInstanceOf[DoubleItem])), pick)
    best.map(b => if (sawDouble && b.isNumeric) DoubleItem(b.numericDouble) else b).iterator
  }

  /** Items with equal [[KeyEncoder.key]]s are one value; a non-atomic item
    * is XPTY0004. */
  private def distinctValues(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] =
    if (a.head.isRDD(ctx))
      RddUtils.collectWithCap(
        a.head.getRDD(ctx).map(i => (KeyEncoder.key(i), i)).reduceByKey((x, _) => x).map(_._2),
        ctx.conf)
    else {
      val seen = scala.collection.mutable.HashSet.empty[(Int, String)]
      a.head.localIterator(ctx).filter(i => seen.add(KeyEncoder.key(i)))
    }

  // ------------------------------------------------------------ sequences

  /** The 0-based `[from, until)` range of the 1-based positions `p` with
    * `round(start) <= p < round(start) + round(length)` (F&O `subsequence`
    * and `substring`; `round` rounds halves up), clamped to `[0, Int.MaxValue]`.
    * Start and length are the at-most-one items `a(1)` and `a(2)`: an empty
    * start counts as 1, an empty length as `emptyLength`, no `a(2)` as no
    * bound; a NaN bound selects nothing. */
  private def positions(a: List[RuntimeIterator], ctx: DynamicContext,
                        emptyLength: Double): (Int, Int) = {
    def arg(i: Int, default: Double): Double =
      a(i).materializeAtMostOne(ctx).fold(default)(p => math.floor(p.numericDouble + 0.5))
    def clamp(p: Double): Int = math.max(0.0, math.min(p - 1, Int.MaxValue)).toInt
    val start = arg(1, 1)
    val end   = if (a.size > 2) start + arg(2, emptyLength) else Double.PositiveInfinity
    if (start.isNaN || end.isNaN) (0, 0) else (clamp(start), clamp(end))
  }

  private def subsequence(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] = {
    val (from, until) = positions(a, ctx, emptyLength = Double.PositiveInfinity)
    a(0).localIterator(ctx).slice(from, until)
  }

  // -------------------------------------------------------------- scalars

  /** `integer(x)`: the exact value of a number or of a string read as a
    * decimal number (`"1e3"`, `" -2.7 "`), truncated toward zero; NaN and
    * ±INF are FOCA0002, a string that is no decimal number FORG0001. */
  private def integer(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] =
    a.head.materializeAtMostOne(ctx).iterator.map {
      case DoubleItem(d) if d.isNaN || d.isInfinite =>
        throw new RumbleException("FOCA0002", s"cannot cast $d to integer")
      case n if n.isNumeric => Item.integerPart(n.decimalValue)
      case StringItem(s) =>
        try Item.integerPart(new java.math.BigDecimal(s.trim))
        catch { case _: NumberFormatException =>
          throw new RumbleException("FORG0001", s"cannot cast to integer: \"$s\"")
        }
      case BooleanItem(b) => IntItem(if (b) 1 else 0)
      case other => throw new RumbleException("XPTY0004", s"cannot cast to integer: $other")
    }

  private def double(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] =
    a.head.materializeAtMostOne(ctx) match {
      case None => Iterator.empty
      case Some(i) if i.isNumeric => Iterator.single(DoubleItem(i.numericDouble))
      case Some(s) if s.isString  =>
        Iterator.single(
          try DoubleItem(s.stringValue.trim.toDouble)
          catch { case _: NumberFormatException => DoubleItem(Double.NaN) })
      case Some(BooleanItem(b))   => Iterator.single(DoubleItem(if (b) 1.0 else 0.0))
      case Some(other) =>
        throw new RumbleException("XPTY0004", s"cannot cast to double: $other")
    }

  private def round(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] = {
    val digits = a.lift(1).flatMap(_.materializeAtMostOne(ctx)).fold(0)(_.numericDouble.toInt)
    a.head.materializeAtMostOne(ctx).iterator.map(Numeric.round(_, digits))
  }

  /** Positions count code points, not UTF-16 units (F&O §5.1). */
  private def substring(a: List[RuntimeIterator], ctx: DynamicContext): Iterator[Item] = {
    val (from, until) = positions(a, ctx, emptyLength = 0)
    val s             = str(a(0), ctx)
    val n             = s.codePointCount(0, s.length)
    def offset(p: Int) = s.offsetByCodePoints(0, math.min(p, n))
    Iterator.single(StringItem(if (from >= until) "" else s.substring(offset(from), offset(until))))
  }
}
