package repro.core.json

import repro.core.model._

/** Serializes an [[Item]] back to JSON text (one line, no pretty-printing),
  * used by the `json-file`-style output path and the shells of the
  * baselines. Inverse of [[JsonParser]]: `parse(write(i)) == i` for items
  * originating from JSON (doubles keep their shortest decimal form).
  */
object JsonWriter {

  def write(item: Item): String = {
    val sb = new StringBuilder
    append(sb, item)
    sb.toString
  }

  private def append(sb: StringBuilder, item: Item): Unit = item match {
    case NullItem          => sb.append("null")
    case BooleanItem(b)    => sb.append(if (b) "true" else "false")
    case IntItem(v)        => sb.append(v)
    case DoubleItem(v)     =>
      if (v.isNaN || v.isInfinite) sb.append("null") // JSON has no NaN/Inf
      // whole numbers below 1e15 in plain digits, where Double.toString writes
      // 1.0E7; a zero goes to Double.toString, which keeps the sign of −0.0
      else if (v == math.floor(v) && math.abs(v) < 1e15 && v != 0) { sb.append(v.toLong); sb.append(".0") }
      else sb.append(v)
    case DecimalItem(v)    => sb.append(v.bigDecimal.toPlainString)
    case StringItem(s)     => appendString(sb, s)
    case ArrayItem(values) =>
      sb.append('[')
      var first = true
      values.foreach { v =>
        if (!first) sb.append(", ")
        first = false
        append(sb, v)
      }
      sb.append(']')
    case ObjectItem(fields) =>
      sb.append('{')
      var first = true
      fields.foreach { case (k, v) =>
        if (!first) sb.append(", ")
        first = false
        appendString(sb, k)
        sb.append(" : ")
        append(sb, v)
      }
      sb.append('}')
  }

  /** A surrogate pair is written as it is; an unpaired surrogate, which
    * UTF-8 cannot encode, is written as its `\uXXXX` escape, so it reads
    * back as the same char. */
  private def appendString(sb: StringBuilder, s: String): Unit = {
    sb.append('"')
    var i = 0
    while (i < s.length) {
      s.charAt(i) match {
        case '"'           => sb.append("\\\"")
        case '\\'          => sb.append("\\\\")
        case '\b'          => sb.append("\\b")
        case '\f'          => sb.append("\\f")
        case '\n'          => sb.append("\\n")
        case '\r'          => sb.append("\\r")
        case '\t'          => sb.append("\\t")
        case c if c < ' '  => sb.append(f"\\u${c.toInt}%04x")
        case c if Character.isHighSurrogate(c) && i + 1 < s.length &&
                  Character.isLowSurrogate(s.charAt(i + 1)) =>
          sb.append(c).append(s.charAt(i + 1))
          i += 1
        case c if Character.isSurrogate(c) => sb.append(f"\\u${c.toInt}%04x")
        case c             => sb.append(c)
      }
      i += 1
    }
    sb.append('"')
  }
}
