package repro.core.model

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** Round-trip tests for the binary serde backing FLWOR DataFrame cells. */
class ItemSerdeSpec extends AnyFunSuite {

  private def rt(items: Seq[Item]): Unit =
    assert(ItemSerde.deserializeSeq(ItemSerde.serializeSeq(items)) == items.toList)

  test("empty sequence") { rt(Nil) }

  test("atomics") {
    rt(Seq(IntItem(0), IntItem(Long.MaxValue), IntItem(Long.MinValue)))
    rt(Seq(DoubleItem(1.5), DoubleItem(Double.MaxValue), DoubleItem(-0.0)))
    rt(Seq(DecimalItem(BigDecimal("123456789.123456789"))))
    rt(Seq(StringItem(""), StringItem("héllo wörld"), StringItem("a\nb\tc")))
    rt(Seq(StringItem("日本語 ∑ €"), StringItem("emoji \uD83D\uDE00!"), StringItem("\uD800"),
           StringItem("x\uDC00y"), StringItem("\u0000"), StringItem("a\u0000b\u07FF\u0800\uFFFF")))
    rt(Seq(BooleanItem(true), BooleanItem(false), NullItem))
  }

  test("structured items") {
    rt(Seq(ArrayItem(Vector(IntItem(1), StringItem("x"), NullItem))))
    rt(Seq(ObjectItem(Vector("a" -> IntItem(1), "b" -> ArrayItem(Vector(NullItem))))))
    rt(Seq(ObjectItem(Vector("ключ" -> IntItem(1), "\uD83D\uDE00" -> NullItem, "\uDFFF" -> NullItem,
                             "\u0000" -> StringItem("v")))))
    rt(Seq(ObjectItem(Vector.empty), ArrayItem(Vector.empty)))
  }

  test("text over 64 KiB round-trips (string, object key, decimal)") {
    val big = "x" * 70000
    rt(Seq(StringItem(big), StringItem("é" * 40000), StringItem("\uD83D\uDE00" * 20000)))
    rt(Seq(ObjectItem(Vector(big -> StringItem(big)))))
    rt(Seq(DecimalItem(BigDecimal("1" * 70000 + ".5"))))
  }

  test("deeply nested") {
    val deep = (1 to 50).foldLeft(IntItem(0): Item)((acc, _) => ArrayItem(Vector(acc)))
    rt(Seq(deep))
  }

  test("long heterogeneous sequence") {
    rt((1 to 1000).map(i => if (i % 2 == 0) IntItem(i.toLong) else StringItem(s"s$i")))
  }

  test("null bytes deserialize to empty") {
    assert(ItemSerde.deserializeSeq(null) == Nil)
  }

  test("sequence length is readable from the header") {
    val bytes = ItemSerde.serializeSeq(Seq(IntItem(1), IntItem(2), IntItem(3)))
    assert(java.nio.ByteBuffer.wrap(bytes).getInt == 3)
  }

  test("an unknown tag is a SERDE error") {
    val e = intercept[RumbleException](ItemSerde.deserializeSeq(Array[Byte](0, 0, 0, 1, 42)))
    assert(e.code == "SERDE")
  }

  test("property: random items round-trip") {
    // any UTF-16 code unit, lone surrogates included
    val anyStr: Gen[String] = Gen.stringOf(Gen.choose(Char.MinValue, Char.MaxValue))
    val atom: Gen[Item] = Gen.oneOf(
      Gen.choose(Long.MinValue, Long.MaxValue).map(IntItem.apply),
      Gen.choose(-1e12, 1e12).map(DoubleItem.apply),
      anyStr.map(StringItem.apply),
      Gen.oneOf(BooleanItem(true), BooleanItem(false), NullItem))
    def g(d: Int): Gen[Item] =
      if (d == 0) atom
      else Gen.frequency(
        4 -> atom,
        1 -> Gen.listOfN(4, g(d - 1)).map(l => ArrayItem(l.toVector)),
        1 -> Gen.listOfN(4, Gen.zip(anyStr, g(d - 1)))
          .map(l => ObjectItem(l.toVector)))
    (1 to 200).foreach { i =>
      Gen.listOfN(5, g(2)).apply(Gen.Parameters.default, Seed(i.toLong)).foreach(rt)
    }
  }
}
