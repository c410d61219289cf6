package repro.core

import org.scalacheck.Gen
import repro.core.RumbleSpec.forAllSamples
import repro.core.json.JsonWriter
import repro.core.model._
import repro.core.runtime.flwor.KeyEncoder

/** Generated differential cases: `order by` (both directions, empty least
  * or greatest), `group by … return count(…)` and `distinct-values` over
  * generated atomics, run over `parallelize` on Spark and under
  * `forceLocal`. Both paths must give the same result or the same error
  * code. Tie order is not defined, so the items of each run of equal sort
  * keys, the group counts and the distinct values are compared as sorted
  * lists. Values mix integers near 2^53 and 2^63, long decimals, special
  * doubles, strings with supplementary and U+E000–U+FFFF characters, null,
  * booleans and absent keys. */
class GeneratedPathsSpec extends RumbleSpec {
  import GeneratedPathsSpec._

  /** Each case costs one Spark query; ten per shape keeps the suite short. */
  private val Cases = 10

  /** Both paths' outcomes of `query`, each reduced by `norm`, agree. */
  private def agree(query: String)(norm: List[Item] => Any): Unit = {
    val (onSpark, local) = (result(rumble, query).map(norm), result(rumbleLocal, query).map(norm))
    check(onSpark == local, s"$query\nSpark: $onSpark\nlocal: $local")
  }

  /** The items in runs of equal sort key, each run's items serialized and sorted. */
  private def runs(emptyGreatest: Boolean)(xs: List[Item]): List[List[String]] = {
    def key(o: Item) = KeyEncoder.encodeOrder(o.lookup("k").toList, emptyGreatest)
    xs.foldRight(List.empty[List[Item]]) {
      case (x, (run @ (y :: _)) :: rest) if key(x) == key(y) => (x :: run) :: rest
      case (x, acc)                                          => List(x) :: acc
    }.map(run => run.map(i => ser(Seq(i))).sorted)
  }

  test("generated order by: Spark and local give the same runs") {
    val cases = for {
      vs       <- values
      dir      <- Gen.oneOf("ascending", "descending")
      greatest <- Gen.oneOf(true, false)
    } yield (vs, dir, greatest)
    forAllSamples(cases, Cases) { case (vs, dir, greatest) =>
      val eg = if (greatest) "greatest" else "least"
      agree(s"for $$o in ${objects(vs)} order by $$o.k $dir empty $eg return $$o")(runs(greatest))
    }
  }

  test("generated group by: Spark and local give the same group counts") {
    forAllSamples(values, Cases) { vs =>
      agree(s"for $$o in ${objects(vs)} group by $$k := $$o.k return count($$o)")(_.map(i => ser(Seq(i))).sorted)
    }
  }

  test("generated distinct-values: Spark and local give the same values") {
    forAllSamples(values, Cases) { vs =>
      val lits = vs.flatten.map(literal).mkString(", ")
      agree(s"distinct-values(parallelize(($lits), 3))")(_.map(KeyEncoder.key).sortBy(_.toString))
    }
  }
}

object GeneratedPathsSpec {

  /** A query expression whose value is `i`. */
  def literal(i: Item): String = i match {
    case IntItem(Long.MinValue) => "(-9223372036854775807 - 1)"
    case IntItem(v)             => s"($v)"
    case DecimalItem(v)         =>
      val t = v.bigDecimal.toPlainString
      s"(${if (t.contains('.')) t else t + ".0"})"
    case DoubleItem(d) if d.isNaN      => "(0e0 div 0)"
    case DoubleItem(d) if d.isInfinite => if (d > 0) "(1e0 div 0)" else "(-1e0 div 0)"
    case DoubleItem(d)                 =>
      val t = java.lang.Double.toString(d)
      s"(${if (t.contains('E')) t else t + "E0"})"
    case other => JsonWriter.write(other)
  }

  /** Each value as `{"i": position, "k": value}`, or without `k` when absent. */
  def objects(vs: List[Option[Item]]): String =
    vs.zipWithIndex.map {
      case (Some(v), i) => s"""{"i": $i, "k": ${literal(v)}}"""
      case (None, i)    => s"""{"i": $i}"""
    }.mkString("parallelize((", ", ", "), 3)")

  private val TwoTo53 = BigInt(1) << 53
  private val TwoTo63 = BigInt(1) << 63

  private val number: Gen[Item] = Gen.oneOf(
    for {
      base <- Gen.oneOf(TwoTo53, -TwoTo53, TwoTo63, -TwoTo63, BigInt(0))
      off  <- Gen.choose(-2L, 2L)
    } yield Item.integer(BigDecimal(base + off)),
    Gen.oneOf("12345678901234567890.5", "12345678901234567890.50", "-98765432109876543210.25",
              "0.1", "1.0").map(s => DecimalItem(BigDecimal(s))),
    Gen.oneOf(0.0, -0.0, 0.1, 1.0, 9007199254740992.0, Double.MinPositiveValue, Double.NaN,
              Double.PositiveInfinity, Double.NegativeInfinity).map(DoubleItem(_)))

  private val string: Gen[Item] = for {
    n   <- Gen.frequency(1 -> 0, 4 -> 1, 2 -> 2)
    cps <- Gen.listOfN(n, Gen.oneOf(0x61, 0xe000, 0xfffd, 0x10000, 0x1f600, 0x10ffff))
  } yield StringItem(new String(cps.toArray, 0, cps.size))

  /** Absent keys, nulls and booleans, with numbers, strings or (rarely) both. */
  val values: Gen[List[Option[Item]]] = for {
    typed <- Gen.frequency(3 -> Gen.const(number), 3 -> Gen.const(string),
                           1 -> Gen.const(Gen.oneOf(BooleanItem(true), BooleanItem(false))),
                           1 -> Gen.const(Gen.oneOf(number, string)))
    pool  <- Gen.listOfN(4, typed)
    n     <- Gen.choose(4, 10)
    vs    <- Gen.listOfN(n, Gen.frequency(6 -> Gen.oneOf(pool).map(Some(_)),
                                          1 -> Gen.const(Some(NullItem)), 1 -> Gen.const(None)))
  } yield vs
}
