package repro.core.model

import java.math.{MathContext, BigDecimal => Dec}
import java.math.RoundingMode.{HALF_DOWN, HALF_UP}

/** XQuery's numeric promotion (F&O 3.1 §4.2), the one rule of every numeric
  * operator and builtin. An operation gives three cases and `apply` picks
  * one: two integers are the `Long` case, a double operand makes both
  * operands doubles, any other two numbers are the exact decimal case (an
  * integer past a `Long` is a `DecimalItem`); a non-number is XPTY0004. */
abstract class Numeric[R] extends Serializable {
  def longs(x: Long, y: Long): R
  def doubles(x: Double, y: Double): R
  def decimals(x: Dec, y: Dec): R

  final def apply(a: Item, b: Item): R = (a, b) match {
    case (IntItem(x), IntItem(y))                => longs(x, y)
    case _ if !a.isNumeric || !b.isNumeric       =>
      throw new RumbleException("XPTY0004", s"not numbers: $a, $b")
    case (_: DoubleItem, _) | (_, _: DoubleItem) => doubles(a.numericDouble, b.numericDouble)
    case _                                       => decimals(a.decimalValue, b.decimalValue)
  }
}

object Numeric {
  /** [[Compare]]'s outcome when a NaN leaves two numbers unordered. */
  val Unordered: Int = Int.MinValue

  /** Numeric order: -1, 0, 1 or [[Unordered]]. Doubles compare with the
    * primitive operators, so −0.0 equals 0.0 and NaN is unordered (XQuery). */
  object Compare extends Numeric[Int] {
    def longs(x: Long, y: Long): Int       = java.lang.Long.compare(x, y)
    def doubles(x: Double, y: Double): Int =
      if (x < y) -1 else if (x > y) 1 else if (x == y) 0 else Unordered
    def decimals(x: Dec, y: Dec): Int      = x.compareTo(y)
  }

  /** `-x`, for unary minus and `abs`: −1 × x, so `Long.MinValue` overflows
    * into a decimal and a double zero changes sign. */
  def negate(x: Item): Item = Arithmetic.Multiply(IntItem(-1), x)

  def abs(x: Item): Item =
    if (x.isInstanceOf[DoubleItem]) DoubleItem(math.abs(x.numericDouble))
    else if (Compare(x, IntItem(0)) < 0) negate(x) else x

  /** `round(x, p)` (F&O): x's exact value rounded to `p` decimal places,
    * halves toward +INF, in x's type; a double NaN, ±INF or ±0 is itself. */
  def round(x: Item, p: Int): Item = {
    def r = {
      val v = x.decimalValue
      if (v.scale <= p) v else v.setScale(p, if (v.signum < 0) HALF_DOWN else HALF_UP)
    }
    x match {
      case DoubleItem(d) if d.isNaN || d.isInfinite || d == 0 => x
      case DoubleItem(d) => DoubleItem(math.copySign(r.doubleValue, d))
      case IntItem(_)    => Item.integer(BigDecimal(r))
      case _             => DecimalItem(BigDecimal(r))
    }
  }
}

/** An arithmetic operator, named by its symbol (`Builtins.operators`). `+`,
  * `-` and `*` overflow from the `Long` case into the decimal case; `div`,
  * `idiv` and `mod` raise FOAR0001 for a zero divisor in the `Long` and
  * decimal cases. Two integers `div` to a double. */
sealed abstract class Arithmetic(symbol: String) extends Numeric[Item] {
  override def toString: String = symbol
}

object Arithmetic {
  private def decimal(v: Dec): Item = DecimalItem(BigDecimal(v))

  sealed abstract class Exact(symbol: String, long: (Long, Long) => Long,
                              dec: (Dec, Dec) => Dec, dbl: (Double, Double) => Double)
      extends Arithmetic(symbol) {
    def longs(x: Long, y: Long): Item =
      try IntItem(long(x, y))
      catch { case _: ArithmeticException => decimals(Dec.valueOf(x), Dec.valueOf(y)) }
    def doubles(x: Double, y: Double): Item = DoubleItem(dbl(x, y))
    def decimals(x: Dec, y: Dec): Item      = decimal(dec(x, y))
  }
  object Add      extends Exact("+", Math.addExact, _ add _, _ + _)
  object Subtract extends Exact("-", Math.subtractExact, _ subtract _, _ - _)
  object Multiply extends Exact("*", Math.multiplyExact, _ multiply _, _ * _)

  sealed abstract class Division(symbol: String, long: (Long, Long) => Item, dec: (Dec, Dec) => Item)
      extends Arithmetic(symbol) {
    def longs(x: Long, y: Long): Item  = if (y == 0) byZero else long(x, y)
    def decimals(x: Dec, y: Dec): Item = if (y.signum == 0) byZero else dec(x, y)
  }
  private def byZero: Nothing = throw new RumbleException("FOAR0001", "division by zero")

  /** A decimal quotient keeps 34 significant digits (F&O asks for 18). */
  object Div extends Division("div", (x, y) => DoubleItem(x.toDouble / y),
                              (x, y) => decimal(x.divide(y, MathContext.DECIMAL128))) {
    def doubles(x: Double, y: Double): Item = DoubleItem(x / y)
  }
  object IDiv extends Division("idiv",
      (x, y) => if (y == -1) Numeric.negate(IntItem(x)) else IntItem(x / y), // no Long overflow
      (x, y) => Item.integer(BigDecimal(x.divideToIntegralValue(y)))) {
    def doubles(x: Double, y: Double): Item =
      if (y == 0) byZero
      else if ((x / y).isNaN || (x / y).isInfinite)
        throw new RumbleException("FOAR0002", s"$x idiv $y has no integer result")
      else Item.integerPart(new Dec(x / y)) // the exact value of the double quotient, truncated
  }
  object Mod extends Division("mod", (x, y) => IntItem(x % y), (x, y) => decimal(x.remainder(y))) {
    def doubles(x: Double, y: Double): Item = DoubleItem(x % y)
  }
}
