package repro.core.json

import java.nio.charset.StandardCharsets.{ISO_8859_1, UTF_8}
import org.apache.hadoop.conf.Configuration
import org.apache.hadoop.fs.FileStatus
import org.apache.hadoop.io.{LongWritable, Text}
import org.apache.hadoop.mapred.{FileInputFormat, JobConf, TextInputFormat}
import org.apache.hadoop.util.LineReader
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
  * or one value per line (`parseLine`, and `readLines` and `readFiles`, the
  * JSON-Lines contract, over the files `inputFiles` lists). Given the keys a
  * query reads, it builds only those members of a top-level object and
  * checks the rest without building them.
  * Invalid JSON raises [[JsonParser.Invalid]], code JNDY0021.
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
  def parseBytes(bytes: Array[Byte], off: Int, len: Int): Item = parseBytes(bytes, off, len, null)

  /** `parseBytes`, except that of a top-level object only the members whose
    * key `keys` holds are built, every occurrence in order; the other
    * members' values are checked and skipped without allocating. The input
    * is valid exactly when `parseBytes` accepts it. `keys == null` builds
    * every member. */
  def parseBytes(bytes: Array[Byte], off: Int, len: Int, keys: Keys): Item = {
    val p = new JsonParser(bytes, off, off + len)
    p.skipWs()
    val v = if (keys != null && !p.atEnd && p.peek == '{') p.parseObject(keys) else p.parseValue()
    p.skipWs()
    if (!p.atEnd) p.fail("trailing input")
    v
  }

  /** The top-level keys an object line keeps (see `parseBytes`). A key
    * written without escapes is compared as UTF-8 bytes, so no `String` is
    * made for it. Two valid encodings are equal exactly when their strings
    * are, and a key whose bytes are not valid UTF-8 decodes to a string with
    * U+FFFD, which only a kept key holding U+FFFD can equal; such a set
    * decodes every key. */
  final class Keys(names: Set[String]) extends Serializable {
    private val kept: Array[String]       = names.toArray
    private val bytes: Array[Array[Byte]] = kept.map(_.getBytes(UTF_8))
    val decodesAll: Boolean               = names.exists(_.contains('\uFFFD'))

    /** The kept key equal to `b` in [`from`, `until`), or null. */
    def find(b: Array[Byte], from: Int, until: Int): String = {
      var i = 0
      while (i < bytes.length) {
        if (java.util.Arrays.equals(bytes(i), 0, bytes(i).length, b, from, until)) return kept(i)
        i += 1
      }
      null
    }

    /** `key` if it is kept, or null. */
    def find(key: String): String = if (names.contains(key)) key else null
  }

  /** The files `json-file(path)` reads, in the order it reads them, on
    * Spark and locally alike. `path` is a Hadoop path pattern (a glob;
    * commas separate several). Each file it matches is read, and each
    * directory it matches is replaced by the files directly in it; its
    * subdirectories are not read. A name that starts with `_` or `.` is
    * hidden, as in Hadoop (`_SUCCESS`, `.crc` checksums), and is not read.
    * The files are sorted by path. A pattern that matches nothing raises
    * FODC0002 naming it.
    *
    * Only `globStatus` and `listStatus` are called. Hadoop's own listing
    * builds a `LocatedFileStatus` per file, which on a local file system
    * without native Hadoop forks an `ls` per file to read its permissions. */
  def inputFiles(path: String, conf: Configuration): Array[FileStatus] = {
    val job = new JobConf(conf)
    FileInputFormat.setInputPaths(job, path)
    inputFiles(job)
  }

  /** `inputFiles` of the paths set in `job`, as `FileInputFormat` holds them. */
  def inputFiles(job: JobConf): Array[FileStatus] = {
    def hidden(s: FileStatus) = s.getPath.getName.startsWith("_") || s.getPath.getName.startsWith(".")
    FileInputFormat.getInputPaths(job).flatMap { pattern =>
      val fs      = pattern.getFileSystem(job)
      val matched = Option(fs.globStatus(pattern)).getOrElse(Array.empty[FileStatus]).filterNot(hidden)
      if (matched.isEmpty) throw new RumbleException("FODC0002", s"json-file: no file matches $pattern")
      matched.flatMap(m => if (m.isDirectory) fs.listStatus(m.getPath).filterNot(hidden) else Array(m))
    }.filter(_.isFile).sortBy(_.getPath.toString)
  }

  /** `json-file` on Spark: the JSON-Lines files `inputFiles` lists for
    * `path`, in at least `parts` partitions, one item per line. The listing
    * runs here, on the driver, so a path that matches nothing fails before
    * any Spark job. Each Hadoop `Text` record is parsed in place from its
    * UTF-8 bytes (Spark's `textFile` does the same read and then decodes
    * every line to a `String`). A line that holds only whitespace and
    * control characters is skipped; the bytes compare unsigned, so a line of
    * non-ASCII characters is parsed, not skipped. An invalid line raises
    * JNDY0021 naming `path` and the line's byte offset. */
  def readLines(sc: SparkContext, path: String, parts: Int): RDD[Item] = readLines(sc, path, parts, None)

  /** `readLines`, building of each object line only the top-level `keys`
    * when given (see `parseBytes`). */
  def readLines(sc: SparkContext, path: String, parts: Int, keys: Option[Set[String]]): RDD[Item] = {
    val kept    = keys.map(new Keys(_)).orNull
    val records = sc.hadoopFile[LongWritable, Text, JsonInputFormat](path, parts)
    records.partitions // lists the input now
    records.mapPartitions { lines =>
      lines
        .filter { case (_, line) => !isBlank(line.getBytes, line.getLength) }
        .map { case (offset, line) =>
          try parseBytes(line.getBytes, 0, line.getLength, kept)
          catch { case e: Invalid => throw e.at(s"json-file $path, line at byte offset ${offset.get}") }
        }
    }
  }

  /** `json-file` without Spark: the lines of the files `inputFiles` lists
    * for `path`, split as Hadoop's `TextInputFormat` splits them (at LF, CR
    * or CRLF), skipped when blank and parsed from their bytes as
    * `readLines` does, so both paths read the same items in the same order.
    * An invalid line raises JNDY0021 naming its file and its number. */
  def readFiles(path: String): Iterator[Item] =
    inputFiles(path, localConf).iterator.flatMap { file =>
      val in    = file.getPath.getFileSystem(localConf).open(file.getPath)
      val lines = new LineReader(in)
      val line  = new Text
      Iterator.from(1)
        .takeWhile(_ => lines.readLine(line) > 0 || { in.close(); false })
        .filter(_ => !isBlank(line.getBytes, line.getLength))
        .map { n =>
          try parseBytes(line.getBytes, 0, line.getLength)
          catch { case e: Invalid => throw e.at(s"json-file ${file.getPath}, line $n") }
        }
    }

  /** The Hadoop configuration of `readFiles`, shared by every call. */
  private lazy val localConf = new Configuration()

  private def isBlank(bytes: Array[Byte], len: Int): Boolean = {
    var i = 0
    while (i < len && (bytes(i) & 0xff) <= ' ') i += 1
    i == len
  }
}

/** Hadoop's `TextInputFormat` over `JsonParser.inputFiles`: the splits and
  * records of `TextInputFormat`, of the files the local reader reads, in
  * the same order. */
final class JsonInputFormat extends TextInputFormat {
  override protected def listStatus(job: JobConf): Array[FileStatus] = JsonParser.inputFiles(job)
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
      case '{'                                     => parseObject(null)
      case '['                                     => parseArray()
      case '"'                                     => StringItem(parseString())
      case 't'                                     => parseKeyword("true", BooleanItem(true))
      case 'f'                                     => parseKeyword("false", BooleanItem(false))
      case 'n'                                     => parseKeyword("null", NullItem)
      case c if c == '-' || (c >= '0' && c <= '9') => parseNumber()
      case c                                       => unexpected(c)
    }
  }

  /** Moves past the value at `pos`, checking it as `parseValue` does but
    * building nothing. */
  private def skipValue(): Unit = {
    skipWs()
    if (atEnd) fail("unexpected end of input")
    peek match {
      case '{' => skipMembers('}')
      case '[' => skipMembers(']')
      case '"' => skipString()
      case 't' => parseKeyword("true", null)
      case 'f' => parseKeyword("false", null)
      case 'n' => parseKeyword("null", null)
      case c if c == '-' || (c >= '0' && c <= '9') => skipNumber()
      case c => unexpected(c)
    }
  }

  /** Moves past the object (`close` is '}') or array (']') at `pos`. */
  private def skipMembers(close: Char): Unit = {
    pos += 1; skipWs()
    if (!atEnd && peek == close) { pos += 1; return }
    val isObject = close == '}'
    var done     = false
    while (!done) {
      skipWs()
      if (isObject) { skipString(); skipWs(); expect(':') }
      skipValue()
      skipWs()
      if (atEnd) fail(if (isObject) "unterminated object" else "unterminated array")
      peek match {
        case ','             => pos += 1
        case c if c == close => pos += 1; done = true
        case c               => fail(s"expected ',' or '$close' but found '$c'")
      }
    }
  }

  private def unexpected(c: Char): Nothing =
    if (c < 0x80) fail(s"unexpected character '$c'") else fail(f"unexpected byte 0x${c.toInt}%02x")

  private def parseKeyword(kw: String, item: Item): Item = {
    var i = 0
    while (i < kw.length) {
      if (pos + i >= end || b(pos + i) != kw.charAt(i)) fail(s"expected '$kw'")
      i += 1
    }
    pos += kw.length
    item
  }

  /** The object at `pos`, with only the members whose key `keys` keeps
    * (every member when `keys` is null). */
  private def parseObject(keys: JsonParser.Keys): Item = {
    expect('{'); skipWs()
    val fields = Vector.newBuilder[(String, Item)]
    if (!atEnd && peek == '}') { pos += 1; return ObjectItem(fields.result()) }
    var done = false
    while (!done) {
      skipWs()
      val key = if (keys == null) parseString() else keptKey(keys)
      skipWs(); expect(':')
      if (key != null) fields += ((key, parseValue())) else skipValue()
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

  /** The key at `pos` if `keys` keeps it, else null. A key with no escape
    * is compared as bytes; one with escapes is decoded first. */
  private def keptKey(keys: JsonParser.Keys): String = {
    val from = pos + 1
    if (skipString() || keys.decodesAll) keys.find(decode(from, pos - 1))
    else keys.find(b, from, pos - 1)
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

  /** A string with no escape is decoded once, straight from the bytes. */
  private def parseString(): String = {
    val from = pos + 1
    if (skipString()) decode(from, pos - 1) else new String(b, from, pos - 1 - from, UTF_8)
  }

  /** Moves past the string at `pos`, checking its escapes; true when it
    * has any. */
  private def skipString(): Boolean = {
    expect('"')
    var escaped = false
    while (pos < end && b(pos) != '"') {
      if (b(pos) == '\\') {
        escaped = true
        pos += 1
        if (atEnd) fail("unterminated escape")
        peek match {
          case '"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't' =>
          case 'u'   => hex4(pos); pos += 4
          case other => fail(s"bad escape '\\$other'")
        }
      }
      pos += 1
    }
    if (atEnd) fail("unterminated string")
    pos += 1
    escaped
  }

  /** The string in bytes [`from`, `until`), whose escapes `skipString`
    * has checked. */
  private def decode(from: Int, until: Int): String = {
    val sb  = new java.lang.StringBuilder
    var run = from // the first byte not yet in `sb`
    var i   = from
    while (i < until) {
      if (b(i) == '\\') {
        sb.append(new String(b, run, i - run, UTF_8))
        val c = (b(i + 1) & 0xff).toChar
        sb.append(c match {
          case 'b' => '\b'
          case 'f' => '\f'
          case 'n' => '\n'
          case 'r' => '\r'
          case 't' => '\t'
          case 'u' => hex4(i + 1)
          case _   => c // '"', '\\' and '/' stand for themselves
        })
        i += (if (c == 'u') 6 else 2)
        run = i
      } else i += 1
    }
    sb.append(new String(b, run, until - run, UTF_8)).toString
  }

  /** The char of the `\uXXXX` escape whose `u` is at `u`. */
  private def hex4(u: Int): Char = {
    if (end - u < 5) { pos = u; fail("bad unicode escape") }
    var v = 0
    for (i <- 1 to 4) {
      val d = Character.digit(b(u + i) & 0xff, 16)
      if (d < 0) { pos = u; fail("bad unicode escape") }
      v = v * 16 + d
    }
    v.toChar
  }

  /** Moves past the number at `pos`; true when it is an integer. Accepts
    * `-`? digits (`.` digits)? ([eE] [+-]? digits)? with at least one
    * mantissa digit on either side of the point and, after an `e`, at least
    * one exponent digit, so messy forms such as `01`, `1.` and `-.5` read as
    * the number they plainly denote. */
  private def skipNumber(): Boolean = {
    if (b(pos) == '-') pos += 1
    var digits     = skipDigits()
    var isIntegral = true
    if (pos < end && b(pos) == '.') {
      isIntegral = false
      pos += 1
      digits += skipDigits()
    }
    var exponentOk = true
    if (pos < end && (b(pos) == 'e' || b(pos) == 'E')) {
      isIntegral = false
      pos += 1
      if (pos < end && (b(pos) == '+' || b(pos) == '-')) pos += 1
      exponentOk = skipDigits() > 0
    }
    if (digits == 0 || !exponentOk) fail("bad number")
    isIntegral
  }

  /** Moves past a run of digits; returns its length. */
  private def skipDigits(): Int = {
    val s = pos
    while (pos < end && b(pos) >= '0' && b(pos) <= '9') pos += 1
    pos - s
  }

  /** An integer is an `IntItem` when it fits in a `Long` and a
    * `DecimalItem` otherwise; a fraction or an exponent makes a `DoubleItem`. */
  private def parseNumber(): Item = {
    val s          = pos
    val isIntegral = skipNumber()
    val text       = new String(b, s, pos - s, ISO_8859_1)
    if (isIntegral) {
      try IntItem(text.toLong)
      catch { case _: NumberFormatException => DecimalItem(BigDecimal(text)) }
    } else DoubleItem(text.toDouble)
  }
}
