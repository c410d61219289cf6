package repro.core.json

import java.nio.charset.StandardCharsets.{ISO_8859_1, UTF_8}
import org.apache.hadoop.io.{LongWritable, Text}
import org.apache.hadoop.mapred.TextInputFormat
import org.apache.spark.SparkContext
import org.apache.spark.rdd.RDD
import repro.core.model._

/** Hand-written streaming JSON parser: UTF-8 bytes → [[Item]].
  *
  * Stand-in for the JSONiter parser the paper uses in `json-file()`
  * (§5.7): it builds items directly from the input bytes, without an
  * intermediate DOM or a decoded line `String`, which is the property the
  * paper relies on for its "CPU-bound JSON parsing" observation in §6.3.
  *
  * Accepts one JSON value per call (`parseBytes`, or `parse` on a string)
  * or one value per line (`parseLine` and `readLines`, the JSON-Lines
  * contract). Invalid JSON raises [[JsonParser.Invalid]], code JNDY0021.
  */
object JsonParser {

  /** JSONiq's error code for invalid JSON text. */
  private val InvalidJson = "JNDY0021"

  /** Invalid JSON; `detail` says what is wrong and at which byte. */
  final class Invalid(val detail: String) extends RumbleException(InvalidJson, detail) {
    /** The same error, with `where` (the input and the line) in front. */
    def at(where: String): RumbleException = new RumbleException(InvalidJson, s"$where: $detail")
  }

  /** Parse a complete JSON value; trailing input is an error. */
  def parse(text: String): Item = {
    val b = text.getBytes(UTF_8)
    parseBytes(b, 0, b.length)
  }

  /** Parse one JSON-Lines record (must be a single JSON value). */
  def parseLine(line: String): Item = parse(line)

  /** Parse the complete JSON value in the `len` UTF-8 bytes of `bytes` from
    * `off`; trailing input is an error. No item keeps a reference to
    * `bytes`, so the caller may reuse the buffer. */
  def parseBytes(bytes: Array[Byte], off: Int, len: Int): Item = {
    val p = new JsonParser(bytes, off, off + len)
    val v = p.parseValue()
    p.skipWs()
    if (!p.atEnd) p.fail("trailing input")
    v
  }

  /** `json-file` on Spark: the JSON-Lines file(s) at `path` in at least
    * `parts` partitions, one item per line. Each Hadoop `Text` record is
    * parsed in place from its UTF-8 bytes (Spark's `textFile` does the same
    * read and then decodes every line to a `String`). A line that holds only
    * whitespace and control characters is skipped; the bytes compare
    * unsigned, so a line of non-ASCII characters is parsed, not skipped. An
    * invalid line raises JNDY0021 naming `path` and the line's byte offset. */
  def readLines(sc: SparkContext, path: String, parts: Int): RDD[Item] =
    sc.hadoopFile[LongWritable, Text, TextInputFormat](path, parts).mapPartitions { records =>
      records
        .filter { case (_, line) => !isBlank(line.getBytes, line.getLength) }
        .map { case (offset, line) =>
          try parseBytes(line.getBytes, 0, line.getLength)
          catch { case e: Invalid => throw e.at(s"json-file $path, line at byte offset ${offset.get}") }
        }
    }

  private def isBlank(bytes: Array[Byte], len: Int): Boolean = {
    var i = 0
    while (i < len && (bytes(i) & 0xff) <= ' ') i += 1
    i == len
  }
}

/** Parses the UTF-8 bytes of `b` in [`start`, `end`). Scanning bytes for
  * ASCII delimiters is safe because every byte of a multi-byte UTF-8
  * sequence is at least 0x80. */
final class JsonParser(b: Array[Byte], start: Int, end: Int) {
  /** The next byte to read. */
  var pos: Int = start

  def atEnd: Boolean = pos >= end

  /** The byte at `pos` as a char; non-ASCII bytes map to U+0080–U+00FF. */
  private def peek: Char = (b(pos) & 0xff).toChar

  def skipWs(): Unit =
    while (pos < end && (b(pos) == ' ' || b(pos) == '\t' || b(pos) == '\n' || b(pos) == '\r')) pos += 1

  private def fail(msg: String): Nothing =
    throw new JsonParser.Invalid(
      s"$msg at byte ${pos - start} in: ${new String(b, start, math.min(end - start, 200), UTF_8)}")

  private def expect(c: Char): Unit = {
    if (atEnd || peek != c) fail(s"expected '$c'")
    pos += 1
  }

  def parseValue(): Item = {
    skipWs()
    if (atEnd) fail("unexpected end of input")
    peek match {
      case '{'                                     => parseObject()
      case '['                                     => parseArray()
      case '"'                                     => StringItem(parseString())
      case 't'                                     => parseKeyword("true", BooleanItem(true))
      case 'f'                                     => parseKeyword("false", BooleanItem(false))
      case 'n'                                     => parseKeyword("null", NullItem)
      case c if c == '-' || (c >= '0' && c <= '9') => parseNumber()
      case c if c < 0x80                           => fail(s"unexpected character '$c'")
      case c                                       => fail(f"unexpected byte 0x${c.toInt}%02x")
    }
  }

  private def parseKeyword(kw: String, item: Item): Item = {
    var i = 0
    while (i < kw.length) {
      if (pos + i >= end || b(pos + i) != kw.charAt(i)) fail(s"expected '$kw'")
      i += 1
    }
    pos += kw.length
    item
  }

  private def parseObject(): Item = {
    expect('{'); skipWs()
    val fields = Vector.newBuilder[(String, Item)]
    if (!atEnd && peek == '}') { pos += 1; return ObjectItem(fields.result()) }
    var done = false
    while (!done) {
      skipWs()
      val key = parseString()
      skipWs(); expect(':')
      val value = parseValue()
      fields += ((key, value))
      skipWs()
      if (atEnd) fail("unterminated object")
      peek match {
        case ',' => pos += 1
        case '}' => pos += 1; done = true
        case c   => fail(s"expected ',' or '}' but found '$c'")
      }
    }
    ObjectItem(fields.result())
  }

  private def parseArray(): Item = {
    expect('['); skipWs()
    val values = Vector.newBuilder[Item]
    if (!atEnd && peek == ']') { pos += 1; return ArrayItem(values.result()) }
    var done = false
    while (!done) {
      values += parseValue()
      skipWs()
      if (atEnd) fail("unterminated array")
      peek match {
        case ',' => pos += 1
        case ']' => pos += 1; done = true
        case c   => fail(s"expected ',' or ']' but found '$c'")
      }
    }
    ArrayItem(values.result())
  }

  /** A string with no escape is decoded once, straight from the bytes;
    * only one with escapes goes through a builder. */
  private def parseString(): String = {
    expect('"')
    var sb: java.lang.StringBuilder = null // made at the first escape
    var run = pos                          // the first byte not yet in `sb`
    while (pos < end && b(pos) != '"') {
      if (b(pos) == '\\') {
        if (sb == null) sb = new java.lang.StringBuilder
        sb.append(new String(b, run, pos - run, UTF_8))
        pos += 1
        if (atEnd) fail("unterminated escape")
        sb.append(peek match {
          case '"'   => '"'
          case '\\'  => '\\'
          case '/'   => '/'
          case 'b'   => '\b'
          case 'f'   => '\f'
          case 'n'   => '\n'
          case 'r'   => '\r'
          case 't'   => '\t'
          case 'u'   => parseHex4()
          case other => fail(s"bad escape '\\$other'")
        })
        run = pos + 1
      }
      pos += 1
    }
    if (atEnd) fail("unterminated string")
    pos += 1
    val last = new String(b, run, pos - 1 - run, UTF_8)
    if (sb == null) last else sb.append(last).toString
  }

  /** The char of a `\uXXXX` escape whose `u` is at `pos`; leaves `pos` on
    * the last hex digit. */
  private def parseHex4(): Char = {
    if (end - pos < 5) fail("bad unicode escape")
    var v = 0
    for (i <- 1 to 4) {
      val d = Character.digit(b(pos + i) & 0xff, 16)
      if (d < 0) fail("bad unicode escape")
      v = v * 16 + d
    }
    pos += 4
    v.toChar
  }

  private def skipDigits(): Unit =
    while (pos < end && b(pos) >= '0' && b(pos) <= '9') pos += 1

  /** An integer is an `IntItem` when it fits in a `Long` and a
    * `DecimalItem` otherwise; a fraction or an exponent makes a `DoubleItem`. */
  private def parseNumber(): Item = {
    val s = pos
    if (b(pos) == '-') pos += 1
    skipDigits()
    var isIntegral = true
    if (pos < end && b(pos) == '.') {
      isIntegral = false
      pos += 1
      skipDigits()
    }
    if (pos < end && (b(pos) == 'e' || b(pos) == 'E')) {
      isIntegral = false
      pos += 1
      if (pos < end && (b(pos) == '+' || b(pos) == '-')) pos += 1
      skipDigits()
    }
    val text = new String(b, s, pos - s, ISO_8859_1)
    if (text == "-") fail("bad number")
    if (isIntegral) {
      try IntItem(text.toLong)
      catch { case _: NumberFormatException => DecimalItem(BigDecimal(text)) }
    } else {
      try DoubleItem(text.toDouble)
      catch { case _: NumberFormatException => fail("bad number") }
    }
  }
}
