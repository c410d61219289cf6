package repro.core.parser

import java.nio.charset.StandardCharsets.UTF_8
import repro.core.json.JsonParser
import repro.core.model._

/** Tokens produced by the hand-written JSONiq lexer (ANTLR stand-in, §5.2).
  *
  * Keywords (`for`, `let`, `where`, `eq`, ...) are lexed as plain names and
  * recognized contextually by the parser, the standard approach for
  * XQuery-family grammars where keywords are not reserved.
  */
sealed trait Token { def describe: String }
final case class TName(s: String)   extends Token { def describe = s"name '$s'" }
final case class TVar(s: String)    extends Token { def describe = s"variable $$$s" }
case object TContextItem            extends Token { def describe = "$$" }
final case class TString(s: String) extends Token { def describe = s"string \"$s\"" }
final case class TNumber(i: Item)   extends Token { def describe = s"number $i" }
final case class TPunct(s: String)  extends Token { def describe = s"'$s'" }
case object TEOF                    extends Token { def describe = "end of query" }

/** Converts JSONiq query text into a token stream. */
object Lexer {

  private val twoCharPuncts = Seq("||", "!=", "<=", ">=", ":=", "[[", "]]")
  private val oneCharPuncts = "()[]{},:.+-*=<>!?".toSet

  def tokenize(query: String): Vector[Token] = {
    val out = Vector.newBuilder[Token]
    var pos = 0
    val len = query.length

    def isNameStart(c: Char) = c.isLetter || c == '_'
    def isNameChar(c: Char)  = c.isLetterOrDigit || c == '_'
    def isDigitAt(p: Int)    = p < len && query.charAt(p) >= '0' && query.charAt(p) <= '9'

    while (pos < len) {
      val c = query.charAt(pos)
      if (c.isWhitespace) pos += 1
      else if (c == '(' && pos + 1 < len && query.charAt(pos + 1) == ':') {
        // comment (: ... :), non-nesting
        val end = query.indexOf(":)", pos + 2)
        if (end < 0) throw new StaticException("XPST0003", "unterminated comment")
        pos = end + 2
      } else if (c == '$') {
        if (pos + 1 < len && query.charAt(pos + 1) == '$') { out += TContextItem; pos += 2 }
        else {
          pos += 1
          val start = pos
          if (pos >= len || !isNameStart(query.charAt(pos)))
            throw new StaticException("XPST0003", s"bad variable name at $pos")
          pos += 1
          while (pos < len && (isNameChar(query.charAt(pos)) ||
                 (query.charAt(pos) == '-' && pos + 1 < len && isNameChar(query.charAt(pos + 1)))))
            pos += 1
          out += TVar(query.substring(start, pos))
        }
      } else if (isNameStart(c)) {
        val start = pos
        pos += 1
        while (pos < len && (isNameChar(query.charAt(pos)) ||
               (query.charAt(pos) == '-' && pos + 1 < len && isNameChar(query.charAt(pos + 1)))))
          pos += 1
        out += TName(query.substring(start, pos))
      } else if (c == '"') {
        // string literal with JSON escapes — reuse the JSON string scanner,
        // which counts UTF-8 bytes: the literal's length in chars is that of
        // the bytes it consumed, decoded
        val bytes = query.substring(pos).getBytes(UTF_8)
        val p     = new JsonParser(bytes, 0, bytes.length)
        val v =
          try p.parseValue()
          catch { case e: JsonParser.Invalid =>
            throw new StaticException("XPST0003", s"bad string literal at $pos: ${e.detail}") }
        out += TString(v.stringValue)
        pos += new String(bytes, 0, p.pos, UTF_8).length
      } else if (isDigitAt(pos)) {
        // 1 is an integer (a decimal past the range of a Long, as in JSON
        // input), 1.5 a decimal, 1.5e0 a double; `.` needs a digit after it
        val start = pos
        while (isDigitAt(pos)) pos += 1
        var isIntegral = true
        var isDouble   = false
        if (pos < len && query.charAt(pos) == '.' && isDigitAt(pos + 1)) {
          isIntegral = false
          pos += 1
          while (isDigitAt(pos)) pos += 1
        }
        if (pos < len && (query.charAt(pos) == 'e' || query.charAt(pos) == 'E')) {
          isIntegral = false; isDouble = true
          pos += 1
          if (pos < len && (query.charAt(pos) == '+' || query.charAt(pos) == '-')) pos += 1
          if (!isDigitAt(pos))
            throw new StaticException("XPST0003", s"exponent without digits at $start")
          while (isDigitAt(pos)) pos += 1
        }
        val text = query.substring(start, pos)
        out += TNumber(
          if (isIntegral) Item.integer(BigDecimal(text))
          else if (isDouble) DoubleItem(text.toDouble)
          else DecimalItem(BigDecimal(text)))
      } else {
        val two = if (pos + 1 < len) query.substring(pos, pos + 2) else ""
        if (twoCharPuncts.contains(two)) { out += TPunct(two); pos += 2 }
        else if (oneCharPuncts.contains(c)) { out += TPunct(c.toString); pos += 1 }
        else throw new StaticException("XPST0003", s"unexpected character '$c' at $pos")
      }
    }
    out += TEOF
    out.result()
  }
}
