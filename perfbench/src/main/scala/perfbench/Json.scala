package perfbench

/** Minimal JSON encoder for the raw result file the JVM hands to run.py:
  * maps, sequences, strings, numbers, booleans and null. */
object Json {
  def encode(v: Any): String = {
    val sb = new StringBuilder
    write(sb, v)
    sb.toString
  }

  private def write(sb: StringBuilder, v: Any): Unit = v match {
    case null | None       => sb.append("null")
    case Some(x)           => write(sb, x)
    case b: Boolean        => sb.append(b)
    case d: Double         => sb.append(if (d.isNaN || d.isInfinite) "null" else d.toString)
    case f: Float          => write(sb, f.toDouble)
    case n: Int            => sb.append(n)
    case n: Long           => sb.append(n)
    case s: String         => string(sb, s)
    case m: Map[_, _]      =>
      sb.append('{')
      m.iterator.zipWithIndex.foreach { case ((k, x), i) =>
        if (i > 0) sb.append(',')
        string(sb, k.toString); sb.append(':'); write(sb, x)
      }
      sb.append('}')
    case xs: Iterable[_]   =>
      sb.append('[')
      xs.iterator.zipWithIndex.foreach { case (x, i) =>
        if (i > 0) sb.append(','); write(sb, x)
      }
      sb.append(']')
    case other             => string(sb, other.toString)
  }

  private def string(sb: StringBuilder, s: String): Unit = {
    sb.append('"')
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case '\r' => sb.append("\\r")
      case '\t' => sb.append("\\t")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"')
  }
}
