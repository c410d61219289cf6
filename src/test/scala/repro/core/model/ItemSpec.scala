package repro.core.model

import org.scalatest.funsuite.AnyFunSuite
import repro.core.runtime.flwor.KeyEncoder

/** Unit tests for the item data model: EBV, comparisons, type ranks. */
class ItemSpec extends AnyFunSuite {

  test("string item basics") {
    val s = StringItem("abc")
    assert(s.isString && s.isAtomic && !s.isNumeric)
    assert(s.stringValue == "abc")
    assert(s.effectiveBoolean)
    assert(!StringItem("").effectiveBoolean)
    assert(s.castToString == "abc")
  }

  test("integer item basics") {
    val i = IntItem(42)
    assert(i.isNumeric && i.isInteger)
    assert(i.numericDouble == 42.0)
    assert(i.effectiveBoolean)
    assert(!IntItem(0).effectiveBoolean)
    assert(i.castToString == "42")
  }

  test("double item basics") {
    assert(DoubleItem(1.5).numericDouble == 1.5)
    assert(!DoubleItem(0.0).effectiveBoolean)
    assert(!DoubleItem(Double.NaN).effectiveBoolean)
    assert(DoubleItem(2.0).castToString == "2")
    assert(DoubleItem(2.5).castToString == "2.5")
  }

  test("decimal item basics") {
    assert(DecimalItem(BigDecimal("1.50")).castToString == "1.50")
    assert(DecimalItem(BigDecimal(0)).effectiveBoolean == false)
    assert(DecimalItem(BigDecimal(3)).numericDouble == 3.0)
  }

  test("boolean and null items") {
    assert(BooleanItem(true).booleanValue)
    assert(!BooleanItem(false).effectiveBoolean)
    assert(NullItem.isNull && !NullItem.effectiveBoolean)
    assert(NullItem.castToString == "null")
  }

  test("object lookup and keys") {
    val o = ObjectItem(Vector("a" -> IntItem(1), "b" -> StringItem("x")))
    assert(o.isObject)
    assert(o.lookup("a").contains(IntItem(1)))
    assert(o.lookup("z").isEmpty)
    assert(o.keys == Vector("a", "b"))
    assert(o.effectiveBoolean)
  }

  test("array values") {
    val a = ArrayItem(Vector(IntItem(1), NullItem))
    assert(a.isArray)
    assert(a.arrayValues.size == 2)
    assert(a.effectiveBoolean)
    assert(IntItem(1).arrayValues.isEmpty)
  }

  test("string value on non-string errors") {
    assertThrows[RumbleException](IntItem(1).stringValue)
    assertThrows[RumbleException](NullItem.numericDouble)
    assertThrows[RumbleException](StringItem("x").booleanValue)
  }

  test("EBV of sequences") {
    assert(!Item.effectiveBooleanValue(Nil))
    assert(Item.effectiveBooleanValue(Seq(IntItem(1))))
    assert(Item.effectiveBooleanValue(Seq(ObjectItem(Vector.empty), IntItem(0))))
    assertThrows[RumbleException](Item.effectiveBooleanValue(Seq(IntItem(1), IntItem(2))))
  }

  test("compareAtomics: numbers across types") {
    assert(KeyEncoder.compareAtomics(IntItem(1), DoubleItem(1.0)) == 0)
    assert(KeyEncoder.compareAtomics(IntItem(1), DecimalItem(BigDecimal(2))) < 0)
    assert(KeyEncoder.compareAtomics(DoubleItem(3.5), IntItem(3)) > 0)
  }

  test("compareAtomics: strings, booleans, null") {
    assert(KeyEncoder.compareAtomics(StringItem("a"), StringItem("b")) < 0)
    assert(KeyEncoder.compareAtomics(BooleanItem(false), BooleanItem(true)) < 0)
    assert(KeyEncoder.compareAtomics(NullItem, IntItem(-999)) < 0)
    assert(KeyEncoder.compareAtomics(StringItem("a"), NullItem) > 0)
    assert(KeyEncoder.compareAtomics(NullItem, NullItem) == 0)
  }

  test("compareAtomics: incompatible types throw") {
    assertThrows[RumbleException](KeyEncoder.compareAtomics(StringItem("1"), IntItem(1)))
    assertThrows[RumbleException](KeyEncoder.compareAtomics(BooleanItem(true), IntItem(1)))
  }

  test("atomicEquals semantics") {
    // equality is value order's 0
    assert(KeyEncoder.compareAtomics(IntItem(1), DoubleItem(1.0)) == 0)
    assertThrows[RumbleException](KeyEncoder.compareAtomics(StringItem("1"), IntItem(1)))
    assert(KeyEncoder.compareAtomics(NullItem, NullItem) == 0)
    assert(KeyEncoder.compareAtomics(NullItem, IntItem(0)) != 0)
  }

  test("two integers compare exactly, not through doubles") {
    val (big, bigPlus1) = (IntItem(9007199254740992L), IntItem(9007199254740993L))
    assert(KeyEncoder.compareAtomics(bigPlus1, big) != 0)
    assert(KeyEncoder.compareAtomics(big, bigPlus1) < 0)
    assert(KeyEncoder.compareAtomics(bigPlus1, big) > 0)
    assert(KeyEncoder.compareAtomics(IntItem(Long.MinValue), IntItem(Long.MaxValue)) < 0)
    // an integer against a double still compares numerically
    assert(KeyEncoder.compareAtomics(big, DoubleItem(9007199254740992.0)) == 0)
  }

  private val atomics = Seq(NullItem, BooleanItem(false), BooleanItem(true), StringItem("x"),
                            IntItem(1), DecimalItem(BigDecimal("1.5")), DoubleItem(1.0))

  test("one key rank per atomic type, for group by and order by (§4.7)") {
    assert(atomics.map(KeyEncoder.rank) == Seq(1, 2, 3, 4, 5, 5, 5))
    assert(atomics.map(i => KeyEncoder.encodeGroup(List(i))._1) == atomics.map(KeyEncoder.rank))
    assert(atomics.map(i => KeyEncoder.encodeOrder(List(i), emptyGreatest = true)._1) ==
      atomics.map(KeyEncoder.rank))
  }

  test("keys reject non-atomics and multi-item sequences") {
    assertThrows[RumbleException](KeyEncoder.encodeGroup(List(ArrayItem(Vector.empty))))
    assertThrows[RumbleException](KeyEncoder.encodeGroup(List(IntItem(1), IntItem(2))))
    assertThrows[RumbleException](KeyEncoder.encodeOrder(List(ObjectItem(Vector.empty)), false))
    assertThrows[RumbleException](KeyEncoder.encodeOrder(List(IntItem(1), IntItem(2)), true))
    assertThrows[RumbleException](KeyEncoder.key(ObjectItem(Vector.empty)))
  }

  test("key ranks: empty least/greatest at the extremes") {
    val least    = KeyEncoder.encodeOrder(Nil, emptyGreatest = false)._1
    val greatest = KeyEncoder.encodeOrder(Nil, emptyGreatest = true)._1
    assert(least == 0 && greatest == 9)
    assert(KeyEncoder.encodeGroup(Nil)._1 == least)
    assert(atomics.forall(i => least < KeyEncoder.rank(i) && KeyEncoder.rank(i) < greatest))
    assert(KeyEncoder.rank(BooleanItem(false)) < KeyEncoder.rank(BooleanItem(true)))
  }
}
