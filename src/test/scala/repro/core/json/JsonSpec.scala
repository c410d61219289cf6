package repro.core.json

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.model._

/** Unit + property tests for the streaming JSON parser and the writer
  * (ScalaCheck generators sampled directly — the scalatest-plus bridge is
  * not among the available offline dependencies). */
class JsonSpec extends AnyFunSuite {

  private def forAllSamples[T](gen: Gen[T], n: Int = 200)(check: T => Unit): Unit =
    (1 to n).foreach { i =>
      gen.apply(Gen.Parameters.default, Seed(i.toLong)).foreach(check)
    }

  test("parses atomics") {
    assert(JsonParser.parse("1") == IntItem(1))
    assert(JsonParser.parse("-5") == IntItem(-5))
    assert(JsonParser.parse("1.5") == DoubleItem(1.5))
    assert(JsonParser.parse("-0.25") == DoubleItem(-0.25))
    assert(JsonParser.parse("1e3") == DoubleItem(1000.0))
    assert(JsonParser.parse("2E-2") == DoubleItem(0.02))
    assert(JsonParser.parse("true") == BooleanItem(true))
    assert(JsonParser.parse("false") == BooleanItem(false))
    assert(JsonParser.parse("null") == NullItem)
    assert(JsonParser.parse("\"abc\"") == StringItem("abc"))
    assert(JsonParser.parse("\"\"") == StringItem(""))
  }

  test("very large integers fall back to decimal") {
    assert(JsonParser.parse("123456789012345678901234567890") ==
      DecimalItem(BigDecimal("123456789012345678901234567890")))
    assert(JsonParser.parse("9999999999999999999") == DecimalItem(BigDecimal("9999999999999999999")))
    assert(JsonParser.parse("-9223372036854775809") == DecimalItem(BigDecimal("-9223372036854775809")))
    assert(JsonParser.parse("9223372036854775807") == IntItem(Long.MaxValue))
    assert(JsonParser.parse("-9223372036854775808") == IntItem(Long.MinValue))
    assert(JsonParser.parse("999999999999999999") == IntItem(999999999999999999L))
  }

  test("number edge cases") {
    assert(JsonParser.parse("-0") == IntItem(0))
    assert(JsonParser.parse("007") == IntItem(7))
    assert(JsonParser.parse("1E+2") == DoubleItem(100.0))
    assert(JsonParser.parse("-0.0") == DoubleItem(-0.0))
    assert(JsonParser.parse("[-1,2e0]") == ArrayItem(Vector(IntItem(-1), DoubleItem(2.0))))
  }

  test("strings: non-ASCII, escapes between multi-byte characters, over 64 KiB") {
    assert(JsonParser.parse("\"é€😀\"") == StringItem("é€😀"))
    assert(JsonParser.parse("\"é\\n€\\\"😀\\u00e9\"") == StringItem("é\n€\"😀é"))
    assert(JsonParser.parse("\"\\ud83d\\ude00\"") == StringItem("😀"))
    val long = "é" * 40000 + "a" * 40000
    assert(JsonParser.parse(s"{\"k\": \"$long\"}").lookup("k").contains(StringItem(long)))
    assert(JsonParser.parse(s"\"$long\\t\"") == StringItem(long + "\t"))
  }

  test("parseBytes reads only its range of a larger buffer") {
    val b = "xx{\"a\": [1, \"é\"]}yy".getBytes("UTF-8")
    assert(JsonParser.parseBytes(b, 2, b.length - 4) ==
      ObjectItem(Vector("a" -> ArrayItem(Vector(IntItem(1), StringItem("é"))))))
  }

  test("parses escapes") {
    assert(JsonParser.parse("\"a\\nb\"") == StringItem("a\nb"))
    assert(JsonParser.parse("\"a\\tb\"") == StringItem("a\tb"))
    assert(JsonParser.parse("\"a\\\"b\"") == StringItem("a\"b"))
    assert(JsonParser.parse("\"a\\\\b\"") == StringItem("a\\b"))
    assert(JsonParser.parse("\"\\u0041\"") == StringItem("A"))
    assert(JsonParser.parse("\"\\/\"") == StringItem("/"))
  }

  test("parses arrays") {
    assert(JsonParser.parse("[]") == ArrayItem(Vector.empty))
    assert(JsonParser.parse("[1, 2]") == ArrayItem(Vector(IntItem(1), IntItem(2))))
    assert(JsonParser.parse("[[1], []]") ==
      ArrayItem(Vector(ArrayItem(Vector(IntItem(1))), ArrayItem(Vector.empty))))
    assert(JsonParser.parse("[1, \"a\", null, true]") ==
      ArrayItem(Vector(IntItem(1), StringItem("a"), NullItem, BooleanItem(true))))
  }

  test("parses objects preserving field order") {
    assert(JsonParser.parse("{}") == ObjectItem(Vector.empty))
    val o = JsonParser.parse("""{"b": 1, "a": 2}""").asInstanceOf[ObjectItem]
    assert(o.keys == Vector("b", "a"))
    assert(o.lookup("a").contains(IntItem(2)))
  }

  test("parses nested structures") {
    val o = JsonParser.parse("""{"a": {"b": [1, {"c": null}]}}""")
    assert(o.lookup("a").get.lookup("b").get.arrayValues(1).lookup("c").contains(NullItem))
  }

  test("handles whitespace") {
    assert(JsonParser.parse("  { \"a\" :\n [ 1 ,\t2 ] } ").lookup("a").get.arrayValues.size == 2)
  }

  test("rejects malformed input") {
    assertThrows[RumbleException](JsonParser.parse("{"))
    assertThrows[RumbleException](JsonParser.parse("[1,"))
    assertThrows[RumbleException](JsonParser.parse("{\"a\" 1}"))
    assertThrows[RumbleException](JsonParser.parse("tru"))
    assertThrows[RumbleException](JsonParser.parse("1 2"))
    assertThrows[RumbleException](JsonParser.parse(""))
    assertThrows[RumbleException](JsonParser.parse("\"unterminated"))
    assertThrows[RumbleException](JsonParser.parse("{'a': 1}"))
  }

  // Each reject sits inside a larger buffer, followed by a byte that would
  // close some of them, so that reading past the given range would accept
  // those.
  private val rejects = Seq(
    "{", "[1,", "{\"a\" 1}", "{\"a\": 1", "[1 2]", "tru", "nul", "1 2", "", "  ", "\"unterminated",
    "\"esc\\", "{'a': 1}", "\"\\q\"", "\"\\u12\"", "\"\\u12G4\"", "\"\\u-001\"", "-", "-e5", "1e",
    "1e+", "-.", "+1", ".5", "é", "\"a\"b", "{\"a\": 1}}", "[1]]")

  test("rejects malformed input through parseBytes at an offset, with JNDY0021") {
    for (r <- rejects; closer <- Seq("}", "]", "\"")) {
      val b = ("x[" + r + closer).getBytes("UTF-8")
      val e = intercept[RumbleException](JsonParser.parseBytes(b, 2, b.length - 3))
      assert(e.code == "JNDY0021", r)
      assert(e.isInstanceOf[JsonParser.Invalid], r)
    }
  }

  test("writer forms") {
    assert(JsonWriter.write(IntItem(5)) == "5")
    assert(JsonWriter.write(DoubleItem(2.5)) == "2.5")
    assert(JsonWriter.write(DoubleItem(2.0)) == "2.0")
    assert(JsonWriter.write(StringItem("a\"b\n")) == "\"a\\\"b\\n\"")
    assert(JsonWriter.write(NullItem) == "null")
    assert(JsonWriter.write(ArrayItem(Vector(IntItem(1), IntItem(2)))) == "[1, 2]")
    assert(JsonWriter.write(ObjectItem(Vector("a" -> IntItem(1)))) == "{\"a\" : 1}")
  }

  // ---- property-based round-trips

  /** Any Unicode code point except the surrogate range, so characters
    * outside the BMP appear as surrogate pairs. */
  private val codePointGen: Gen[String] =
    Gen.frequency(
      3 -> Gen.choose(0, 0x7f),
      2 -> Gen.choose(0x80, 0xd7ff),
      1 -> Gen.choose(0xe000, 0xffff),
      2 -> Gen.choose(0x10000, 0x10ffff))
      .map(cp => new String(Character.toChars(cp)))

  private val unicodeStrGen: Gen[String] = Gen.listOf(codePointGen).map(_.mkString)

  private val atomGen: Gen[Item] = Gen.oneOf(
    Gen.choose(Long.MinValue, Long.MaxValue).map(IntItem.apply),
    Gen.choose(-1e6, 1e6).map(DoubleItem.apply),
    Gen.alphaNumStr.map(StringItem.apply),
    unicodeStrGen.map(StringItem.apply),
    Gen.oneOf(BooleanItem(true), BooleanItem(false), NullItem))

  private def itemGen(depth: Int): Gen[Item] =
    if (depth == 0) atomGen
    else Gen.frequency(
      5 -> atomGen,
      1 -> Gen.listOfN(3, itemGen(depth - 1)).map(l => ArrayItem(l.toVector)),
      1 -> Gen.listOfN(3, Gen.zip(Gen.oneOf(Gen.alphaNumStr, unicodeStrGen), itemGen(depth - 1)))
        .map(l => ObjectItem(l.distinctBy(_._1).toVector)))

  test("property: parse(write(item)) == item") {
    forAllSamples(itemGen(3)) { item =>
      assert(JsonParser.parse(JsonWriter.write(item)) == item)
    }
  }

  test("property: strings with special characters round-trip") {
    forAllSamples(Gen.asciiPrintableStr) { s =>
      assert(JsonParser.parse(JsonWriter.write(StringItem(s))) == StringItem(s))
    }
  }

  test("property: arbitrary Unicode strings round-trip, surrogate pairs included") {
    forAllSamples(unicodeStrGen, 500) { s =>
      assert(JsonParser.parse(JsonWriter.write(StringItem(s))) == StringItem(s))
      val bytes = JsonWriter.write(StringItem(s)).getBytes("UTF-8")
      assert(JsonParser.parseBytes(bytes, 0, bytes.length) == StringItem(s))
    }
  }
}
