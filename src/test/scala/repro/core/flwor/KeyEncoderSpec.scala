package repro.core.flwor

import java.nio.charset.StandardCharsets.UTF_8
import org.scalacheck.Gen
import repro.core.RumbleSpec
import repro.core.RumbleSpec.forAllSamples
import repro.core.model._
import repro.core.runtime.flwor.KeyEncoder

/** Generated checks of [[KeyEncoder]]'s keys against exact comparison: for
  * two atomics of one rank, the keys compare as the values do, and are
  * equal exactly when the values are. Numbers are compared as exact values
  * (a double as its binary value, −0.0 as 0, −INF least, +INF above every
  * finite number, NaN greatest); strings by code point, and by UTF-8 bytes
  * as Spark SQL compares them. */
class KeyEncoderSpec extends RumbleSpec {
  import KeyEncoderSpec._

  /** The keys of `a` and `b` compare as `exact` does, and are equal exactly
    * when it is 0. */
  private def agrees(a: Item, b: Item, exact: Int): Unit = {
    val (ka, kb) = (KeyEncoder.key(a), KeyEncoder.key(b))
    assert(Integer.signum(KeyEncoder.compare(ka, kb)) == Integer.signum(exact) &&
      (ka == kb) == (exact == 0), s"${ser(Seq(a))} vs ${ser(Seq(b))}: exact $exact")
  }

  test("number keys order and identify numbers by their exact value") {
    forAllSamples(numberPair, 5000) { case (a, b) => agrees(a, b, compareExact(a, b)) }
  }

  test("number keys are ASCII, so their UTF-8 byte order is their char order") {
    forAllSamples(number, 2000)(n => assert(KeyEncoder.key(n)._2.forall(_ < 128), ser(Seq(n))))
  }

  test("string keys order by code point and by UTF-8 bytes, and are the string") {
    forAllSamples(stringPair, 3000) { case (a, b) =>
      val exact = compareCodePoints(a, b)
      agrees(StringItem(a), StringItem(b), exact)
      assert(Integer.signum(compareBytes(a, b)) == Integer.signum(exact),
        s"UTF-8 order: ${ser(Seq(StringItem(a), StringItem(b)))}")
      assert(KeyEncoder.key(StringItem(a)) == ((KeyEncoder.Str, a)))
    }
  }
}

object KeyEncoderSpec {
  private val TwoTo53 = BigInt(1) << 53
  private val TwoTo63 = BigInt(1) << 63

  /** An integer item: an `IntItem` when it fits a `Long`, else a decimal. */
  private def integer(v: BigInt): Item = Item.integer(BigDecimal(v))

  private val nearBounds: Gen[Item] = for {
    base <- Gen.oneOf(TwoTo53, -TwoTo53, TwoTo63, -TwoTo63, TwoTo63 - 1, BigInt(0))
    off  <- Gen.choose(-3L, 3L)
  } yield integer(base + off)

  private val longs: Gen[Item] = Gen.choose(Long.MinValue, Long.MaxValue).map(IntItem(_))

  /** Decimals of 20 to 40 digits at scales −30…30. */
  private val decimals: Gen[Item] = for {
    n     <- Gen.choose(20, 40)
    ds    <- Gen.listOfN(n, Gen.numChar)
    neg   <- Gen.oneOf(true, false)
    scale <- Gen.choose(-30, 30)
  } yield {
    val u = BigInt(ds.mkString)
    DecimalItem(BigDecimal(new java.math.BigDecimal((if (neg) -u else u).bigInteger, scale)))
  }

  private val specialDoubles: Gen[Item] = Gen.oneOf(
    0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity, Double.NaN,
    Double.MinPositiveValue, -Double.MinPositiveValue, java.lang.Double.MIN_NORMAL,
    Double.MaxValue, -Double.MaxValue, 9007199254740992.0, 0.1, 1.0).map(DoubleItem(_))

  /** Doubles over the whole bit range: every exponent, subnormals and NaNs. */
  private val doubleBits: Gen[Item] =
    Gen.choose(Long.MinValue, Long.MaxValue).map(b => DoubleItem(java.lang.Double.longBitsToDouble(b)))

  val number: Gen[Item] =
    Gen.frequency(3 -> nearBounds, 2 -> longs, 2 -> decimals, 2 -> specialDoubles, 3 -> doubleBits,
                  1 -> Gen.choose(-5L, 5L).map(IntItem(_)))

  /** The same value as another item type, where one exists. */
  private def sameValue(n: Item): Gen[Item] = n match {
    case IntItem(v) =>
      Gen.oneOf(DecimalItem(BigDecimal(v).setScale(2)), DoubleItem(v.toDouble), n)
    case DoubleItem(d) if !d.isNaN && !d.isInfinite =>
      Gen.oneOf(Item.integer(BigDecimal(new java.math.BigDecimal(d))), n)
    case DecimalItem(v) => Gen.oneOf(DecimalItem(v.setScale(v.scale + 3)), n)
    case other          => Gen.const(other)
  }

  /** Two numbers: independent, equal in value, or neighbours. */
  val numberPair: Gen[(Item, Item)] = for {
    a <- number
    b <- Gen.frequency(
      3 -> number, 2 -> sameValue(a),
      2 -> Gen.choose(-2L, 2L).map(d => a match {
        case IntItem(v)     => integer(BigInt(v) + d)
        case DecimalItem(v) => DecimalItem(v + BigDecimal(d, v.scale))
        case other          => other
      }))
  } yield (a, b)

  /** The exact order of two numbers. */
  def compareExact(a: Item, b: Item): Int = {
    // (class, value): −INF 0, finite 1, +INF 2, NaN 3
    def ext(n: Item): (Int, java.math.BigDecimal) = n match {
      case DoubleItem(d) if d.isNaN      => (3, null)
      case DoubleItem(d) if d.isInfinite => (if (d > 0) 2 else 0, null)
      case DoubleItem(d)                 => (1, new java.math.BigDecimal(d))
      case DecimalItem(v)                => (1, v.bigDecimal)
      case IntItem(v)                    => (1, java.math.BigDecimal.valueOf(v))
      case other                         => sys.error(s"not a number: $other")
    }
    val ((ca, va), (cb, vb)) = (ext(a), ext(b))
    if (ca != cb || ca != 1) Integer.compare(ca, cb) else va.compareTo(vb)
  }

  /** Code points from ASCII, the BMP below the surrogates, U+E000–U+FFFF and
    * the supplementary planes; never a lone surrogate. */
  private val codePoint: Gen[Int] = Gen.frequency(
    3 -> Gen.choose(0x20, 0x7e), 2 -> Gen.choose(0x80, 0xd7ff),
    3 -> Gen.choose(0xe000, 0xffff), 3 -> Gen.choose(0x10000, 0x10ffff))

  private val string: Gen[String] = for {
    n   <- Gen.choose(0, 6)
    cps <- Gen.listOfN(n, codePoint)
  } yield new String(cps.toArray, 0, cps.size)

  /** Two strings: independent, equal, or sharing a prefix. */
  val stringPair: Gen[(String, String)] = for {
    a <- string
    half = a.offsetByCodePoints(0, a.codePointCount(0, a.length) / 2)
    b <- Gen.frequency(3 -> string, 1 -> Gen.const(a), 3 -> string.map(a.substring(0, half) + _))
  } yield (a, b)

  def compareCodePoints(a: String, b: String): Int =
    java.util.Arrays.compare(a.codePoints.toArray, b.codePoints.toArray)

  def compareBytes(a: String, b: String): Int =
    java.util.Arrays.compareUnsigned(a.getBytes(UTF_8), b.getBytes(UTF_8))
}
