package repro.core.model

/** Binary serde for sequences of items.
  *
  * FLWOR tuple streams are DataFrames with one BinaryType column per
  * in-scope variable (paper §4.3: "the type of every column is a List of
  * Items"). Each cell is the serialized *materialized sequence* bound to
  * that variable. A compact tag-based format is used instead of Java
  * serialization: cells are written/read billions of times in the group-by
  * and for-clause paths, so the serde is on the hot path.
  *
  * Cell format (all fixed-width integers big-endian):
  * {{{
  * cell   := count:int32 item*           (count = number of items)
  * item   := 0x00                        null
  *         | 0x01 | 0x02                 true | false
  *         | 0x03 int64                  integer
  *         | 0x04 float64                double (IEEE 754 bits)
  *         | 0x05 text                   decimal, as its plain-string form
  *         | 0x06 text                   string
  *         | 0x07 n:int32 item{n}        array
  *         | 0x08 n:int32 (text item){n} object (key, value)
  * text   := len:varint byte{len}        len = byte length, 7 bits per byte,
  *                                       low group first
  * }}}
  * Text bytes encode each UTF-16 `char` on its own, in one byte (below
  * U+0080), two or three bytes, with the bit layout of UTF-8. Surrogates
  * are encoded one `char` at a time, so every Java `String` — lone
  * surrogates and U+0000 included — round-trips exactly, and no length
  * limit applies.
  *
  * Encoding writes into a growable per-thread buffer and copies the result
  * out; decoding reads the byte array with an index cursor.
  */
object ItemSerde {

  private final val TagNull    = 0
  private final val TagTrue    = 1
  private final val TagFalse   = 2
  private final val TagInt     = 3
  private final val TagDouble  = 4
  private final val TagDecimal = 5
  private final val TagString  = 6
  private final val TagArray   = 7
  private final val TagObject  = 8

  /** A thread's encode buffer starts at this size and is dropped after a
    * call that grew it past `MaxRetained`, so one huge cell does not pin
    * memory on an executor thread. */
  private final val InitialSize = 256
  private final val MaxRetained = 1 << 20

  private val writers = ThreadLocal.withInitial(() => new Writer)

  def serializeSeq(items: Seq[Item]): Array[Byte] = {
    val w = writers.get
    w.pos = 0
    w.int(items.size)
    items.foreach(w.item)
    val out = java.util.Arrays.copyOf(w.buf, w.pos)
    if (w.buf.length > MaxRetained) w.buf = new Array[Byte](InitialSize)
    out
  }

  def deserializeSeq(bytes: Array[Byte]): List[Item] = {
    if (bytes == null) return Nil
    val r = new Reader(bytes)
    List.fill(r.int())(r.item())
  }

  private def readInt(b: Array[Byte], p: Int): Int =
    ((b(p) & 0xff) << 24) | ((b(p + 1) & 0xff) << 16) | ((b(p + 2) & 0xff) << 8) | (b(p + 3) & 0xff)

  private final class Writer {
    var buf: Array[Byte] = new Array[Byte](InitialSize)
    var pos: Int         = 0

    private def ensure(n: Int): Unit =
      if (buf.length - pos < n)
        buf = java.util.Arrays.copyOf(buf, math.max(buf.length * 2, pos + n))

    def byte(b: Int): Unit = {
      ensure(1)
      buf(pos) = b.toByte
      pos += 1
    }

    def int(v: Int): Unit = {
      ensure(4)
      buf(pos) = (v >>> 24).toByte
      buf(pos + 1) = (v >>> 16).toByte
      buf(pos + 2) = (v >>> 8).toByte
      buf(pos + 3) = v.toByte
      pos += 4
    }

    def long(v: Long): Unit = {
      int((v >>> 32).toInt)
      int(v.toInt)
    }

    /** Unsigned LEB128; the caller has ensured room for five bytes. */
    private def varint(v0: Int): Unit = {
      var v = v0
      while (v >= 0x80) {
        buf(pos) = (v | 0x80).toByte
        pos += 1
        v >>>= 7
      }
      buf(pos) = v.toByte
      pos += 1
    }

    def text(s: String): Unit = {
      val n   = s.length
      var len = n
      var i   = 0
      while (i < n) {
        val c = s.charAt(i)
        if (c >= 0x80) len += (if (c < 0x800) 1 else 2)
        i += 1
      }
      ensure(5 + len)
      varint(len)
      var p = pos
      i = 0
      if (len == n) { // ASCII: one byte per char
        while (i < n) { buf(p) = s.charAt(i).toByte; p += 1; i += 1 }
      } else {
        while (i < n) {
          val c = s.charAt(i)
          if (c < 0x80) {
            buf(p) = c.toByte
            p += 1
          } else if (c < 0x800) {
            buf(p) = (0xc0 | (c >> 6)).toByte
            buf(p + 1) = (0x80 | (c & 0x3f)).toByte
            p += 2
          } else {
            buf(p) = (0xe0 | (c >> 12)).toByte
            buf(p + 1) = (0x80 | ((c >> 6) & 0x3f)).toByte
            buf(p + 2) = (0x80 | (c & 0x3f)).toByte
            p += 3
          }
          i += 1
        }
      }
      pos = p
    }

    def item(it: Item): Unit = it match {
      case NullItem           => byte(TagNull)
      case BooleanItem(true)  => byte(TagTrue)
      case BooleanItem(false) => byte(TagFalse)
      case IntItem(v)         => byte(TagInt); long(v)
      case DoubleItem(v)      => byte(TagDouble); long(java.lang.Double.doubleToRawLongBits(v))
      case DecimalItem(v)     => byte(TagDecimal); text(v.bigDecimal.toPlainString)
      case StringItem(s)      => byte(TagString); text(s)
      case ArrayItem(values) =>
        byte(TagArray); int(values.size)
        values.foreach(item)
      case ObjectItem(fields) =>
        byte(TagObject); int(fields.size)
        fields.foreach { case (k, v) => text(k); item(v) }
    }
  }

  private final class Reader(bytes: Array[Byte]) {
    private var pos = 0

    def int(): Int = {
      val v = readInt(bytes, pos)
      pos += 4
      v
    }

    def long(): Long = (int().toLong << 32) | (int() & 0xffffffffL)

    def text(): String = {
      var len   = 0
      var shift = 0
      var b     = 0
      while ({ b = bytes(pos); pos += 1; b < 0 }) {
        len |= (b & 0x7f) << shift
        shift += 7
      }
      len |= b << shift
      val start = pos
      val end   = start + len
      var i     = start
      while (i < end && bytes(i) >= 0) i += 1
      pos = end
      if (i == end) new String(bytes, start, len, java.nio.charset.StandardCharsets.ISO_8859_1)
      else {
        val chars = new Array[Char](len)
        var n     = i - start
        var k     = 0
        while (k < n) { chars(k) = bytes(start + k).toChar; k += 1 }
        while (i < end) {
          val b0 = bytes(i)
          if (b0 >= 0) {
            chars(n) = b0.toChar
            i += 1
          } else if ((b0 & 0xe0) == 0xc0) {
            chars(n) = (((b0 & 0x1f) << 6) | (bytes(i + 1) & 0x3f)).toChar
            i += 2
          } else if ((b0 & 0xf0) == 0xe0) {
            chars(n) =
              (((b0 & 0x0f) << 12) | ((bytes(i + 1) & 0x3f) << 6) | (bytes(i + 2) & 0x3f)).toChar
            i += 3
          } else throw new RumbleException("SERDE", s"bad text byte $b0")
          n += 1
        }
        new String(chars, 0, n)
      }
    }

    def item(): Item = {
      val tag: Int = bytes(pos)
      pos += 1
      tag match {
        case TagNull    => NullItem
        case TagTrue    => BooleanItem(true)
        case TagFalse   => BooleanItem(false)
        case TagInt     => IntItem(long())
        case TagDouble  => DoubleItem(java.lang.Double.longBitsToDouble(long()))
        case TagDecimal => DecimalItem(BigDecimal(text()))
        case TagString  => StringItem(text())
        case TagArray   => ArrayItem(Vector.fill(int())(item()))
        case TagObject  => ObjectItem(Vector.fill(int())((text(), item())))
        case other      => throw new RumbleException("SERDE", s"bad tag $other")
      }
    }
  }
}
