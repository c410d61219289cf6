package repro.core.model

import org.scalatest.funsuite.AnyFunSuite

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
    assert(Item.compareAtomics(IntItem(1), DoubleItem(1.0)) == 0)
    assert(Item.compareAtomics(IntItem(1), DecimalItem(BigDecimal(2))) < 0)
    assert(Item.compareAtomics(DoubleItem(3.5), IntItem(3)) > 0)
  }

  test("compareAtomics: strings, booleans, null") {
    assert(Item.compareAtomics(StringItem("a"), StringItem("b")) < 0)
    assert(Item.compareAtomics(BooleanItem(false), BooleanItem(true)) < 0)
    assert(Item.compareAtomics(NullItem, IntItem(-999)) < 0)
    assert(Item.compareAtomics(StringItem("a"), NullItem) > 0)
    assert(Item.compareAtomics(NullItem, NullItem) == 0)
  }

  test("compareAtomics: incompatible types throw") {
    assertThrows[RumbleException](Item.compareAtomics(StringItem("1"), IntItem(1)))
    assertThrows[RumbleException](Item.compareAtomics(BooleanItem(true), IntItem(1)))
  }

  test("atomicEquals semantics") {
    assert(Item.atomicEquals(IntItem(1), DoubleItem(1.0)))
    assert(!Item.atomicEquals(StringItem("1"), IntItem(1)))
    assert(Item.atomicEquals(NullItem, NullItem))
    assert(!Item.atomicEquals(NullItem, IntItem(0)))
  }

  test("two integers compare exactly, not through doubles") {
    val (big, bigPlus1) = (IntItem(9007199254740992L), IntItem(9007199254740993L))
    assert(!Item.atomicEquals(bigPlus1, big))
    assert(Item.compareAtomics(big, bigPlus1) < 0)
    assert(Item.compareAtomics(bigPlus1, big) > 0)
    assert(Item.compareAtomics(IntItem(Long.MinValue), IntItem(Long.MaxValue)) < 0)
    // an integer against a double still compares numerically
    assert(Item.atomicEquals(big, DoubleItem(9007199254740992.0)))
  }

  test("groupTypeRank follows the paper's encoding (§4.7)") {
    assert(Item.groupTypeRank(Nil) == 1)
    assert(Item.groupTypeRank(Nil, emptyGreatest = true) == 7)
    assert(Item.groupTypeRank(Seq(NullItem)) == 2)
    assert(Item.groupTypeRank(Seq(BooleanItem(true))) == 3)
    assert(Item.groupTypeRank(Seq(BooleanItem(false))) == 4)
    assert(Item.groupTypeRank(Seq(StringItem("x"))) == 5)
    assert(Item.groupTypeRank(Seq(IntItem(1))) == 6)
    assert(Item.groupTypeRank(Seq(DoubleItem(1.0))) == 6)
  }

  test("groupTypeRank rejects non-atomics and multi-item keys") {
    assertThrows[RumbleException](Item.groupTypeRank(Seq(ArrayItem(Vector.empty))))
    assertThrows[RumbleException](Item.groupTypeRank(Seq(IntItem(1), IntItem(2))))
  }

  test("orderTypeRank: empty least/greatest at the extremes") {
    assert(Item.orderTypeRank(Nil, emptyGreatest = false) == 0)
    assert(Item.orderTypeRank(Nil, emptyGreatest = true) == 9)
    assert(Item.orderTypeRank(Seq(NullItem), emptyGreatest = false) == 1)
    assert(Item.orderTypeRank(Seq(BooleanItem(false)), emptyGreatest = false) <
           Item.orderTypeRank(Seq(BooleanItem(true)), emptyGreatest = false))
    assertThrows[RumbleException](Item.orderTypeRank(Seq(ObjectItem(Vector.empty)), false))
  }
}
