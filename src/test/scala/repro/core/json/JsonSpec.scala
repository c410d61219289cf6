package repro.core.json

import java.net.URI
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.{LocatedFileStatus, Path, RawLocalFileSystem, RemoteIterator}
import org.apache.hadoop.mapred.{FileInputFormat, FileSplit, JobConf, TextInputFormat}
import org.apache.hadoop.util.ReflectionUtils
import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.core.RumbleSpec
import repro.core.RumbleSpec.forAllSamples
import repro.core.model._
import repro.datasets.HeterogeneousData

/** Unit + property tests for the streaming JSON parser and the writer
  * (ScalaCheck generators sampled directly — the scalatest-plus bridge is
  * not among the available offline dependencies). */
class JsonSpec extends AnyFunSuite {

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

  /** `text` through the projected reader, keeping the keys `keep`. */
  private def projected(text: String, keep: String*): Item = {
    val b = text.getBytes("UTF-8")
    JsonParser.parseBytes(b, 0, b.length, new JsonParser.Keys(keep.toSet))
  }

  test("number edge cases") {
    assert(JsonParser.parse("-0") == IntItem(0))
    assert(JsonParser.parse("007") == IntItem(7))
    assert(JsonParser.parse("1E+2") == DoubleItem(100.0))
    assert(JsonParser.parse("-0.0") == DoubleItem(-0.0))
    assert(JsonParser.parse("[-1,2e0]") == ArrayItem(Vector(IntItem(-1), DoubleItem(2.0))))
    // messy but unambiguous forms are read as the number they denote
    // (DESIGN.md, messy input), by the full reader and as a skipped value
    val lenient = Seq("01" -> IntItem(1), "-01" -> IntItem(-1), "1." -> DoubleItem(1.0),
      "1.e5" -> DoubleItem(100000.0), "-.5" -> DoubleItem(-0.5))
    for ((text, item) <- lenient) {
      assert(JsonParser.parse(text) == item, text)
      assert(projected(s"""{"skip": $text, "k": 1}""", "k") ==
        ObjectItem(Vector("k" -> IntItem(1))), text)
    }
    // a form with no digit in its mantissa or exponent is not a number
    for (text <- Seq("-", "-.", "1e")) {
      assert(intercept[RumbleException](JsonParser.parse(text)).code == "JNDY0021", text)
      assert(intercept[RumbleException](
        projected(s"""{"skip": $text, "k": 1}""", "k")).code == "JNDY0021", text)
    }
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

  test("the projected reader rejects each of them as a skipped value, a kept value and a key") {
    for (r <- rejects; line <- Seq(s"""{"skip": $r, "k": 1}""", s"""{"k": $r}""",
                                   s"""{"k": 1, $r: 2}""", s"""{$r: 2, "k": 1}""")) {
      val e = intercept[RumbleException](projected(line, "k"))
      assert(e.code == "JNDY0021", line)
      assert(intercept[RumbleException](JsonParser.parse(line)).code == "JNDY0021", line)
    }
  }

  test("the projected reader builds only the kept keys of a top-level object") {
    val line = """{"a": {"k": 1, "z": 2}, "k": [1, {"x": 0}], "z": "é", "k": null, "b": -1.5e3}"""
    assert(projected(line, "k") ==
      ObjectItem(Vector("k" -> JsonParser.parse("""[1, {"x": 0}]"""), "k" -> NullItem)))
    // a nested object is built whole
    assert(projected(line, "a") == ObjectItem(Vector("a" -> JsonParser.parse("""{"k": 1, "z": 2}"""))))
    assert(projected(line, "missing") == ObjectItem(Vector.empty))
    assert(projected(line) == ObjectItem(Vector.empty))
    assert(projected(line, "a", "k", "z", "b") == JsonParser.parse(line))
    // a key with escapes is decoded before it is compared
    assert(projected("{\"gu\\u0065ss\": 1, \"g\\\"\": 2, \"guess\": 3}", "guess", "g\"") ==
      ObjectItem(Vector("guess" -> IntItem(1), "g\"" -> IntItem(2), "guess" -> IntItem(3))))
    assert(projected("""{"é": 1, "e": 2}""", "é") == ObjectItem(Vector("é" -> IntItem(1))))
    // other lines are read whole
    for (other <- Seq("""[{"k": 1, "z": 2}]""", "\"k\"", "12", "null", " true "))
      assert(projected(other, "k") == JsonParser.parse(other), other)
  }

  test("the projected reader decodes a key that is not valid UTF-8 when a kept key holds U+FFFD") {
    val b = Array[Byte]('{', '"', 'a', 0xff.toByte, '"', ':', '1', ',', '"', 'b', '"', ':', '2', '}')
    val full = JsonParser.parseBytes(b, 0, b.length)
    assert(full.lookup("a\uFFFD").contains(IntItem(1)))
    val kept = JsonParser.parseBytes(b, 0, b.length, new JsonParser.Keys(Set("a\uFFFD")))
    assert(kept == ObjectItem(Vector("a\uFFFD" -> IntItem(1))))
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

  test("an unpaired surrogate is written as its escape and round-trips") {
    val lone = JsonParser.parse("\"a\\ud83db\"")
    assert(lone == StringItem("a\ud83db"))
    assert(JsonWriter.write(lone) == "\"a\\ud83db\"")
    assert(JsonParser.parse(JsonWriter.write(lone)) == lone)
    for (s <- Seq("\ude00", "x\ude00\ud83d", "\ud83d", "\ud83d\ude00\ud83d"))
      assert(JsonParser.parse(JsonWriter.write(StringItem(s))) == StringItem(s), s)
    // a pair is written as it is
    assert(JsonWriter.write(StringItem("\ud83d\ude00")) == "\"😀\"")
  }

  test("property: strings of any UTF-16 chars round-trip, unpaired surrogates included") {
    forAllSamples(Gen.stringOf(Gen.frequency(
        3 -> Gen.choose(Char.MinValue, Char.MaxValue), 1 -> Gen.choose('\ud800', '\udfff'))), 500) { s =>
      assert(JsonParser.parse(JsonWriter.write(StringItem(s))) == StringItem(s))
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

  // ---- the projected reader against the full one

  /** A line, and keys to keep (some of the valid line's keys and one it
    * lacks): JSON items as the writer writes them, objects whose generated
    * keys may repeat, and `HeterogeneousData` lines; some cut short or with
    * one char replaced, so that many are invalid. */
  private val lineGen: Gen[(String, Set[String])] = for {
    valid <- Gen.oneOf(
      itemGen(3).map(JsonWriter.write),
      Gen.listOfN(4, Gen.zip(Gen.oneOf(Gen.alphaNumStr, unicodeStrGen), itemGen(2)))
        .map(l => JsonWriter.write(ObjectItem(l.toVector))),
      Gen.choose(0L, 1000L).map(HeterogeneousData.fig5Line(_, 12L)),
      Gen.choose(0L, 1000L).map(HeterogeneousData.fig7Line(_, 11L)))
    cut  <- Gen.choose(0, valid.length)
    at   <- Gen.choose(0, math.max(0, valid.length - 1))
    byte <- Gen.oneOf("{}[]\":,\\ eE.+-0un1tx".toSeq)
    line <- Gen.frequency(
      4 -> valid,
      1 -> valid.take(cut),
      1 -> (if (valid.isEmpty) valid else valid.updated(at, byte)))
    keys <- Gen.someOf(JsonParser.parse(valid) match {
      case o: ObjectItem => o.keys :+ "missing"
      case _             => Vector("missing")
    })
  } yield (line, keys.toSet)

  test("property: the projected reader accepts exactly what the full reader accepts, with equal lookups") {
    def read(f: => Item): Either[String, Item] =
      try Right(f) catch { case e: RumbleException => Left(e.code) }
    forAllSamples(lineGen, 2000) { case (line, keys) =>
      val b    = line.getBytes("UTF-8")
      val full = read(JsonParser.parseBytes(b, 0, b.length))
      val kept = read(JsonParser.parseBytes(b, 0, b.length, new JsonParser.Keys(keys)))
      assert(full.isRight == kept.isRight, line)
      assert(kept.left.forall(_ == "JNDY0021"), line)
      for (f <- full; k <- kept) {
        if (f.isObject) keys.foreach(key => assert(k.lookup(key) == f.lookup(key), s"$key in $line"))
        else assert(k == f, line)
      }
    }
  }

  /** A temp directory holding `files` (a name may hold one subdirectory),
    * each one JSON line. */
  private def dirWith(files: String*): java.io.File =
    new java.io.File(RumbleSpec.tempJsonDir("input-files", files.map(n => n -> Seq(s"""{"file": "$n"}"""))))

  private def listed(dir: java.io.File, path: String): Seq[String] =
    JsonParser.inputFiles(path, new Configuration()).toSeq.map { s =>
      s.getPath.toUri.getPath.stripPrefix(dir.getPath + "/")
    }

  private lazy val inputDir =
    dirWith("b.json", "part-00001", "_SUCCESS", ".b.json.crc", "a.json", "sub/c.json", "9.json", "10.json")

  test("inputFiles: a directory's files, sorted by path, without hidden names or subdirectories") {
    assert(listed(inputDir, inputDir.getPath) == Seq("10.json", "9.json", "a.json", "b.json", "part-00001"))
    assert(listed(inputDir, inputDir.getPath + "/") == listed(inputDir, inputDir.getPath))
    val empty = dirWith()
    assert(listed(empty, empty.getPath).isEmpty)
  }

  test("inputFiles: globs and comma-separated paths; a matched directory is read one level down") {
    val d = inputDir.getPath
    assert(listed(inputDir, s"$d/*.json") == Seq("10.json", "9.json", "a.json", "b.json"))
    assert(listed(inputDir, s"$d/{b,a}.json") == Seq("a.json", "b.json"))
    assert(listed(inputDir, s"$d/b.json,$d/a.json") == Seq("a.json", "b.json"))
    assert(listed(inputDir, s"$d/*") == Seq("10.json", "9.json", "a.json", "b.json", "part-00001", "sub/c.json"))
    assert(listed(inputDir, s"$d/sub") == Seq("sub/c.json"))
  }

  test("inputFiles: a path or pattern that matches no file, or only a hidden one, raises FODC0002 naming it") {
    val d = inputDir.getPath
    for (path <- Seq(s"$d/missing.json", s"$d/*.jsonl", s"$d/_SUCCESS", s"$d/a.json,$d/nope")) {
      val e = intercept[RumbleException](JsonParser.inputFiles(path, new Configuration()))
      assert(e.code == "FODC0002" && e.getMessage.contains(path.split(',').last), e.getMessage)
    }
  }

  test("the Spark reader's splits are built without listLocatedStatus, one per file in listing order") {
    val conf = new Configuration()
    conf.set("fs.countfs.impl", classOf[CountingFileSystem].getName)
    val job = new JobConf(conf)
    FileInputFormat.setInputPaths(job, s"countfs://${inputDir.getPath}")
    def splits(format: Class[_ <: TextInputFormat]): Seq[String] = {
      CountingFileSystem.located.set(0)
      ReflectionUtils.newInstance(format, job).getSplits(job, 1).toSeq
        .map(_.asInstanceOf[FileSplit].getPath.getName)
    }
    assert(splits(classOf[JsonInputFormat]) == Seq("10.json", "9.json", "a.json", "b.json", "part-00001"))
    assert(CountingFileSystem.located.get == 0)
    // Hadoop's own listing, which the counter sees; it then fails reading
    // the permissions of a file outside the `file` scheme
    scala.util.Try(splits(classOf[TextInputFormat]))
    assert(CountingFileSystem.located.get == 1)
  }
}

/** The local file system under the scheme `countfs`, counting the calls of
  * `listLocatedStatus`. */
class CountingFileSystem extends RawLocalFileSystem {
  override def getUri: URI = URI.create("countfs:///")
  override def listLocatedStatus(f: Path): RemoteIterator[LocatedFileStatus] = {
    CountingFileSystem.located.incrementAndGet()
    super.listLocatedStatus(f)
  }
}

object CountingFileSystem {
  val located = new java.util.concurrent.atomic.AtomicInteger
}
