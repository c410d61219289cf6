package repro.core

import java.math.{MathContext, RoundingMode, BigDecimal => Dec}
import org.scalacheck.Gen
import repro.core.GeneratedPathsSpec.literal
import repro.core.RumbleSpec.forAllSamples
import repro.core.model._

/** One numeric promotion rule (F&O 3.1 §4.2) behind arithmetic, value
  * comparison, `sum`, `avg`, `min`, `max` and `round`. Every query runs
  * under `forceLocal` and on Spark through `parallelize`. The generated
  * cases are checked against [[NumericSpec.Model]], a reference written on
  * `java.math.BigDecimal`. */
class NumericSpec extends RumbleSpec {
  import NumericSpec._

  private def items(xs: String*) = Right(xs.toList)

  test("a decimal mod 0 is FOAR0001") {
    for (q <- Seq("1.0 mod 0", "1.5 mod 0.0")) expectError(q, "FOAR0001")(rumbleLocal.run)
    both("for $x in parallelize((1.0, 2.0)) return $x mod 0", Left("FOAR0001"))
    both("for $x in parallelize(1.5) return $x mod 0.0", Left("FOAR0001"))
  }

  test("unary plus returns a number as it is; anything else is XPTY0004") {
    both("+1", items("1"))
    both("+1.5", items("1.5"))
    both("+()", items())
    both("+\"a\"", Left("XPTY0004"))
    both("+true", Left("XPTY0004"))
    both("""for $x in parallelize(("a", "b"), 2) return +$x""", Left("XPTY0004"))
  }

  test("sum and avg of decimals are exact") {
    assert(evalLocal("sum((0.1, 0.2))") == "0.3")
    both("sum(parallelize((0.1, 0.2)))", items("0.3"))
    assert(evalLocal("avg((0.1, 0.2, 0.3))") == "0.2")
    both("avg(parallelize((0.1, 0.2, 0.3)))", items("0.2"))
    both("sum(parallelize((0.1, 0.2, 0.3, 0.4), 3))", items("1.0"))
  }

  test("the average of integers is an exact decimal") {
    assert(evalLocal("avg((9007199254740993, 9007199254740993))") == "9007199254740993")
    both("avg(parallelize((9007199254740993, 9007199254740993), 2))", items("9007199254740993"))
    both("avg(parallelize((1, 2), 2))", items("1.5"))
    assert(rumbleLocal.run("avg((1, 3))") == List(DecimalItem(BigDecimal(2))))
  }

  test("round rounds the exact value, halves toward +INF, in the argument's type") {
    val cases = Seq("9007199254740993.4" -> "9007199254740993",
                    "12345678901234567890.5" -> "12345678901234567891",
                    "2.5" -> "3", "-2.5" -> "-2", "2.4" -> "2")
    for ((x, want) <- cases) assert(evalLocal(s"round($x)") == want, x)
    both(s"for $$x in parallelize((${cases.map(_._1).mkString(", ")}), 2) return round($$x)",
         Right(cases.map(_._2).toList))
    assert(rumbleLocal.run("(round(2.5), round(-2.5))") ==
      List(DecimalItem(BigDecimal(3)), DecimalItem(BigDecimal(-2))))
    both("for $x in parallelize((2.5e0, -2.5e0, -0.4e0, 1250, 2.345)) " +
           "return (round($x), round($x, -2), round($x, 2))",
         items("3.0", "0.0", "2.5", "-2.0", "-0.0", "-2.5", "-0.0", "-0.0", "-0.4", "1250", "1300", "1250",
               "2", "0", "2.35"))
  }

  test("a NaN compares false and -0 equals 0 (XQuery)") {
    for (q <- Seq("-0e0 lt 0e0", "(0e0 div 0) gt 1")) assert(evalLocal(q) == "false", q)
    both("for $x in parallelize(-0e0) return ($x lt 0e0, $x eq 0e0, $x le 0, $x ge 0)",
         items("false", "true", "true", "true"))
    both("for $x in parallelize(0e0 div 0) return ($x gt 1, $x lt 1, $x eq $x, $x ne $x, $x ge $x)",
         items("false", "false", "false", "true", "false"))
  }

  test("a double -0 is written as -0.0, and reads back with its sign") {
    for ((q, want) <- Seq("-0e0" -> "-0.0", "[-0e0]" -> "[-0.0]", "round(-0.4e0)" -> "-0.0",
                          "0e0" -> "0.0", "-0e0 + 0e0" -> "0.0"))
      both(s"for $$x in parallelize(1) return $q", items(want))
    val read = json.JsonParser.parse(json.JsonWriter.write(DoubleItem(-0.0)))
    assert(java.lang.Double.doubleToRawLongBits(read.numericDouble) == java.lang.Double.doubleToRawLongBits(-0.0))
  }

  test("min and max promote the whole sequence, whatever the partitioning") {
    // 2^53 + 1 > 2^53, but each equals 2^53 as a double: F&O promotes all three first
    for (k <- 1 to 3) {
      both(s"min(parallelize((9007199254740993, 9007199254740992e0, 9007199254740992), $k))",
           items("9.007199254740992E15"))
      both(s"max(parallelize((9007199254740992, 9007199254740992e0, 9007199254740993), $k))",
           items("9.007199254740992E15"))
    }
    both("min(parallelize((3, 9007199254740993, 2.5), 2))", items("2.5"))
    both("max(parallelize((3, 9007199254740993, 2.5), 2))", items("9007199254740993"))
  }

  test("min and max return NaN when a NaN is present") {
    assert(evalLocal("min((1, 0e0 div 0, 2))") == "null")
    assert(rumbleLocal.run("max((1, 0e0 div 0, 2))").head.numericDouble.isNaN)
    both("min(parallelize((1, 0e0 div 0, 2), 3))", items("null"))
    both("max(parallelize((1, 2, 0e0 div 0), 3))", items("null"))
  }

  // ------------------------------------------------------------ generated

  /** `query` gives `wanted` on `r`, items compared by [[Model.same]]. */
  private def matches(r: Rumble, query: String, wanted: Either[String, List[Item]]): Unit = {
    val got = result(r, query)
    val ok = (got, wanted) match {
      case (Right(g), Right(w)) => g.size == w.size && g.zip(w).forall { case (x, y) => Model.same(x, y) }
      case _                    => got == wanted
    }
    check(ok, s"${if (r eq rumble) "Spark" else "local"}: $query\ngot:    $got\nwanted: $wanted")
  }

  private def seq(xs: Seq[Item]): String = xs.map(literal).mkString("(", ", ", ")")
  private def pairs(ps: Seq[(Item, Item)]): String =
    ps.map { case (a, b) => s"[${literal(a)}, ${literal(b)}]" }.mkString("(", ", ", ")")

  test("generated + - * idiv mod, lt and eq follow the BigDecimal model on both paths") {
    forAllSamples(Gen.listOfN(40, Gen.zip(number, number)), n = 1) { ps =>
      for (op <- Seq("+", "-", "*", "idiv", "mod", "lt", "eq")) {
        val (ok, bad) = ps.map { case (a, b) => ((a, b), Model(op, a, b)) }.partition(_._2.isRight)
        val query     = s"for $$p in parallelize(${pairs(ok.map(_._1))}, 3) return $$p[[1]] $op $$p[[2]]"
        for (r <- Seq(rumble, rumbleLocal)) matches(r, query, Right(ok.map(_._2.toOption.get)))
        // the operations that raise an error: each locally, the first also on Spark
        for (((a, b), w) <- bad) matches(rumbleLocal, s"${literal(a)} $op ${literal(b)}", w.map(List(_)))
        for (((a, b), w) <- bad.take(1))
          matches(rumble, s"for $$p in parallelize(${pairs(Seq((a, b)))}) return $$p[[1]] $op $$p[[2]]",
                  w.map(List(_)))
      }
    }
  }

  test("generated sum, avg, min and max follow the BigDecimal model, per Spark partition") {
    val cases = Gen.zip(Gen.choose(0, 9).flatMap(Gen.listOfN(_, number)), Gen.choose(1, 4))
    forAllSamples(cases, n = 3) { case (xs, k) =>
      for (f <- Seq("sum", "avg", "min", "max")) {
        val query = s"$f(parallelize(${seq(xs)}, $k))"
        matches(rumbleLocal, query, Right(Model.aggregate(f, Seq(xs)).toList))
        matches(rumble, query, Right(Model.aggregate(f, Model.slices(xs, k)).toList))
      }
    }
  }

  test("generated round follows the BigDecimal model on both paths") {
    forAllSamples(Gen.listOfN(30, number), n = 1) { xs =>
      val query = s"for $$x in parallelize(${seq(xs)}, 3) return (round($$x), round($$x, 2), round($$x, -1))"
      val want  = xs.flatMap(x => Seq(0, 2, -1).map(Model.round(x, _)))
      for (r <- Seq(rumble, rumbleLocal)) matches(r, query, Right(want.toList))
    }
  }
}

object NumericSpec {

  private val TwoTo53 = BigInt(1) << 53
  private val TwoTo63 = BigInt(1) << 63

  /** Integers near ±2^53 and ±2^63 (past a `Long` a decimal), small
    * integers, decimals of 20 to 26 digits and short ones, and doubles with
    * ±0, ±INF, NaN and subnormals. */
  val number: Gen[Item] = Gen.frequency(
    3 -> (for {
      base <- Gen.oneOf(TwoTo53, -TwoTo53, TwoTo63, -TwoTo63)
      off  <- Gen.choose(-2L, 2L)
    } yield Item.integer(BigDecimal(base + off))),
    2 -> Gen.choose(-7L, 7L).map(IntItem(_)),
    2 -> (for {
      n      <- Gen.choose(19, 25)
      digits <- Gen.listOfN(n, Gen.numChar)
      scale  <- Gen.choose(1, 6)
      sign   <- Gen.oneOf("", "-")
    } yield DecimalItem(BigDecimal(new Dec(new java.math.BigInteger(sign + "1" + digits.mkString), scale)))),
    2 -> Gen.oneOf("0.1", "0.2", "0.3", "2.5", "-2.5", "0.0", "1.5", "-0.5")
           .map(s => DecimalItem(BigDecimal(s))),
    3 -> Gen.oneOf(Gen.oneOf(0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN,
                             Double.MinPositiveValue, -java.lang.Double.MIN_NORMAL / 3, 0.1, 2.5,
                             -2.5, 9007199254740992.0, 9.223372036854776e18, 1e300),
                   Gen.choose(-1e6, 1e6)).map(DoubleItem(_)))

  /** The reference: XQuery's promotion over `java.math.BigDecimal`, written
    * apart from the engine. Two integers give an integer (a `Long`, else a
    * decimal), a double makes both operands doubles, anything else is exact. */
  object Model {
    private def isDouble(i: Item) = i.isInstanceOf[DoubleItem]
    private def exact(i: Item): Dec = i match {
      case IntItem(v)     => Dec.valueOf(v)
      case DecimalItem(v) => v.bigDecimal
      case DoubleItem(d)  => new Dec(d)
      case other          => sys.error(s"not a number: $other")
    }
    private def double(i: Item): Double = i match {
      case DoubleItem(d) => d
      case other         => exact(other).doubleValue
    }
    private def integer(v: Dec): Item =
      if (v.compareTo(Dec.valueOf(Long.MinValue)) >= 0 && v.compareTo(Dec.valueOf(Long.MaxValue)) <= 0)
        IntItem(v.longValueExact)
      else DecimalItem(BigDecimal(v))
    private def truncated(x: Dec, y: Dec): Dec = x.divide(y, 0, RoundingMode.DOWN)

    /** The value order of two numbers; `None` when a NaN leaves them unordered. */
    def order(a: Item, b: Item): Option[Int] =
      if (isDouble(a) || isDouble(b)) {
        val (x, y) = (double(a), double(b))
        if (x < y) Some(-1) else if (x > y) Some(1) else if (x == y) Some(0) else None
      } else Some(Integer.signum(exact(a).compareTo(exact(b))))

    /** `a op b`, or the code of the error it raises. */
    def apply(op: String, a: Item, b: Item): Either[String, Item] = op match {
      case "lt" => Right(BooleanItem(order(a, b).contains(-1)))
      case "eq" => Right(BooleanItem(order(a, b).contains(0)))
      case _ if isDouble(a) || isDouble(b) =>
        val (x, y) = (double(a), double(b))
        op match {
          case "+"    => Right(DoubleItem(x + y))
          case "-"    => Right(DoubleItem(x - y))
          case "*"    => Right(DoubleItem(x * y))
          case "mod"  => Right(DoubleItem(x % y))
          case "idiv" =>
            if (y == 0) Left("FOAR0001")
            else if ((x / y).isNaN || (x / y).isInfinite) Left("FOAR0002")
            else Right(integer(new Dec(x / y).setScale(0, RoundingMode.DOWN)))
        }
      case _ =>
        val (x, y) = (exact(a), exact(b))
        val ints   = a.isInstanceOf[IntItem] && b.isInstanceOf[IntItem]
        def num(v: Dec): Item = if (ints) integer(v) else DecimalItem(BigDecimal(v))
        op match {
          case "+"                    => Right(num(x.add(y)))
          case "-"                    => Right(num(x.subtract(y)))
          case "*"                    => Right(num(x.multiply(y)))
          case _ if y.signum == 0     => Left("FOAR0001")
          case "idiv"                 => Right(integer(truncated(x, y)))
          case "mod"                  => Right(num(x.subtract(y.multiply(truncated(x, y)))))
        }
    }

    private def plus(a: Item, b: Item): Item = apply("+", a, b).toOption.get

    /** Spark's split of a parallelized sequence into `k` partitions. */
    def slices(xs: Seq[Item], k: Int): Seq[Seq[Item]] =
      (0 until k).map(i => xs.slice(i * xs.size / k, (i + 1) * xs.size / k))

    /** `f` over the concatenated `parts`. `sum` and `avg` fold each part
      * from the start, then the parts' results in order, as the engine does,
      * since double addition depends on the grouping. `min` and `max` promote
      * the whole sequence to one type first (F&O), so the parts do not matter. */
    def aggregate(f: String, parts: Seq[Seq[Item]]): Option[Item] = f match {
      case "sum" => Some(parts.map(_.foldLeft(IntItem(0): Item)(plus)).foldLeft(IntItem(0): Item)(plus))
      case "avg" =>
        val (s, n) = (aggregate("sum", parts).get, parts.map(_.size).sum)
        if (n == 0) None
        else if (isDouble(s)) Some(DoubleItem(double(s) / n))
        else Some(DecimalItem(BigDecimal(exact(s).divide(Dec.valueOf(n.toLong), MathContext.DECIMAL128))))
      case _ =>
        val sign = if (f == "min") -1 else 1
        def pick(best: Option[Item], x: Option[Item]): Option[Item] = (best, x) match {
          case (Some(b), Some(i)) => order(i, b) match {
            case None    => if (double(b).isNaN) best else x
            case Some(c) => if (c == sign) x else best
          }
          case _ => best.orElse(x)
        }
        val xs = parts.flatten
        val promoted = if (xs.exists(isDouble)) xs.map(x => DoubleItem(double(x))) else xs
        promoted.foldLeft(Option.empty[Item])((b, i) => pick(b, Some(i)))
    }

    /** F&O `round(x, p)`: floor(x × 10^p + ½) / 10^p, in x's type; a double
      * NaN, ±INF or ±0 is itself, and a double rounding to zero keeps its sign. */
    def round(x: Item, p: Int): Item = {
      def r(v: Dec) = v.movePointRight(p).add(new Dec("0.5")).setScale(0, RoundingMode.FLOOR).movePointLeft(p)
      x match {
        case DoubleItem(d) if d.isNaN || d.isInfinite || d == 0 => x
        case DoubleItem(d) => DoubleItem(math.copySign(r(exact(x)).doubleValue, d))
        case IntItem(_)    => integer(r(exact(x)))
        case _             => DecimalItem(BigDecimal(r(exact(x))))
      }
    }

    /** The same type and value; doubles by bits, so NaN is NaN and −0.0 is not 0.0. */
    def same(a: Item, b: Item): Boolean = (a, b) match {
      case (DoubleItem(x), DoubleItem(y))   => java.lang.Double.compare(x, y) == 0
      case (DecimalItem(x), DecimalItem(y)) => x.bigDecimal.compareTo(y.bigDecimal) == 0
      case _                                => a == b && a.getClass == b.getClass
    }
  }
}
