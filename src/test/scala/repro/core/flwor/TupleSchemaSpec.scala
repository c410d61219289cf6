package repro.core.flwor

import org.scalatest.funsuite.AnyFunSuite
import repro.core.model._
import repro.core.runtime.{DynamicContext, RumbleConf}
import repro.core.runtime.flwor.{FlworTuple, KeyEncoder, TupleSchema}

/** Unit tests for the tuple-stream row encoding (paper §4.3) and the
  * group/order key encoders (§4.7–4.8). */
class TupleSchemaSpec extends AnyFunSuite {

  test("rowFromTuple/tupleFromRow round-trip") {
    val s = Vector("a", "b")
    val t = FlworTuple(Map("a" -> List(IntItem(1), IntItem(2)), "b" -> List(StringItem("x"))))
    val row  = TupleSchema.rowFromTuple(t, s)
    val back = TupleSchema.tupleFromRow(row, s)
    assert(back.bindings("a") == List(IntItem(1), IntItem(2)))
    assert(back.bindings("b") == List(StringItem("x")))
    // key columns go before the cells
    val keyed = TupleSchema.rowFromTuple(t, s, Seq(5, "k", 1.5))
    assert(keyed.toSeq.take(3) == Seq(5, "k", 1.5))
    assert(ItemSerde.deserializeSeq(keyed.getAs[Array[Byte]](4)) == List(StringItem("x")))
  }

  test("contextFromCells binds each cell under its variable") {
    val cells = Seq(ItemSerde.serializeSeq(List(IntItem(1))), ItemSerde.serializeSeq(Nil))
    val base  = DynamicContext.root(RumbleConf()).enterClosure
    val ctx   = TupleSchema.contextFromCells(cells, Seq("a", "b"), base)
    assert(ctx.lookupOrFail("a") == List(IntItem(1)))
    assert(ctx.lookupOrFail("b") == Nil)
    assert(ctx.insideClosure)
  }

  test("missing bindings serialize as empty sequences") {
    val row = TupleSchema.rowFromTuple(FlworTuple.empty, Vector("a"))
    assert(ItemSerde.deserializeSeq(row.getAs[Array[Byte]](0)) == Nil)
  }

  test("group key encoding matches the paper's column design (§4.7)") {
    assert(KeyEncoder.encodeGroup(Nil) == ((0, "")))
    assert(KeyEncoder.encodeGroup(List(NullItem)) == ((1, "")))
    assert(KeyEncoder.encodeGroup(List(BooleanItem(false))) == ((2, "")))
    assert(KeyEncoder.encodeGroup(List(BooleanItem(true))) == ((3, "")))
    assert(KeyEncoder.encodeGroup(List(StringItem("s"))) == ((4, "s")))
    // a number's value is its exact value: 0.3 × 10^1
    assert(KeyEncoder.encodeGroup(List(IntItem(3))) == ((5, "35000000001" + "3")))
    assert(KeyEncoder.encodeGroup(List(DoubleItem(3.0))) == KeyEncoder.encodeGroup(List(IntItem(3))))
    assert(KeyEncoder.encodeGroup(List(DecimalItem(BigDecimal("3.00")))) ==
      KeyEncoder.encodeGroup(List(IntItem(3))))
  }

  test("order key encoding distinguishes empty least/greatest (§4.8)") {
    assert(KeyEncoder.encodeOrder(Nil, emptyGreatest = false)._1 == 0)
    assert(KeyEncoder.encodeOrder(Nil, emptyGreatest = true)._1 == 9)
    assert(KeyEncoder.encodeOrder(List(StringItem("a")), false) == ((4, "a")))
    assert(KeyEncoder.encodeOrder(List(IntItem(2)), false) == ((5, "35000000001" + "2")))
  }

  test("number keys: special values, signs and the exact value of a double") {
    def n(i: Item) = KeyEncoder.key(i)._2
    assert(n(DoubleItem(Double.NegativeInfinity)) == "0")
    assert(n(DoubleItem(0.0)) == "2" && n(DoubleItem(-0.0)) == "2" && n(IntItem(0)) == "2")
    assert(n(DoubleItem(Double.PositiveInfinity)) == "4")
    assert(n(DoubleItem(Double.NaN)) == "5")
    // -12 is -0.12 × 10^2: exponent and digits complemented, then ':'
    assert(n(IntItem(-12)) == "1" + (9999999999L - 5000000002L) + "87:")
    assert(n(DecimalItem(BigDecimal("0.001"))) == "34999999998" + "1")
    assert(n(DoubleItem(0.1)) != n(DecimalItem(BigDecimal("0.1"))))
    assert(n(DoubleItem(0.5)) == n(DecimalItem(BigDecimal("0.5"))))
  }

  test("checkOrderRanks accepts compatible, rejects mixed") {
    def mask(ranks: Int*) = ranks.map(1 << _).sum
    KeyEncoder.checkOrderRanks(mask(0, 1, 5), 0)       // empty, null, number
    KeyEncoder.checkOrderRanks(mask(2, 3), 0)          // both booleans
    KeyEncoder.checkOrderRanks(mask(9, 4), 0)          // empty-greatest + strings
    assertThrows[RumbleException](KeyEncoder.checkOrderRanks(mask(4, 5), 0))
    assertThrows[RumbleException](KeyEncoder.checkOrderRanks(mask(2, 5), 0))
  }

  test("dynamic context chains and shadows") {
    val root = DynamicContext.root(RumbleConf())
    val c1   = root.bindAll(Map("x" -> List(IntItem(1))))
    val c2   = c1.bindAll(Map("y" -> List(IntItem(2))))
    val c3   = c2.bindAll(Map("x" -> List(IntItem(9))))
    assert(c2.lookupOrFail("x") == List(IntItem(1)))
    assert(c3.lookupOrFail("x") == List(IntItem(9)))
    assert(c3.lookupOrFail("y") == List(IntItem(2)))
    assertThrows[RumbleException](root.lookupOrFail("x"))
  }

  test("enterClosure marks executor-side contexts") {
    val root = DynamicContext.root(RumbleConf())
    assert(!root.insideClosure)
    assert(root.enterClosure.insideClosure)
    assert(root.enterClosure.bindAll(Map("x" -> Nil)).insideClosure)
  }
}
