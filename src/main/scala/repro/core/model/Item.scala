package repro.core.model

/** Exceptions thrown by the engine, mirroring JSONiq's error taxonomy.
  *
  * Dynamic errors carry a JSONiq-like error code (e.g. XPTY0004 for type
  * errors in order-by). Static errors (unknown variable, parse errors) are
  * raised during translation, before any execution happens.
  */
class RumbleException(val code: String, message: String)
    extends RuntimeException(s"[$code] $message")
    with Serializable

/** Raised during parsing / static-context checking (paper §5.3). */
class StaticException(code: String, message: String) extends RumbleException(code, message)

/** Raised when a single-threaded baseline exceeds its modeled heap
  * (used by the Zorba/Xidel stand-ins to reproduce the paper's DNFs). */
class HeapModelExceeded(items: Long, cap: Long)
    extends RumbleException("OOM-SIM", s"heap model exceeded: $items items > cap $cap")

/** A JSONiq item (paper §2.3, §4.1): an atomic value, an object, or an array.
  *
  * The hierarchy is the in-memory representation flowing through both local
  * runtime iterators and Spark RDDs (`RDD[Item]`), so every subclass is
  * Java-serializable (paper §4.1.1: "all kinds of items can be arranged under
  * an Item super class, so that an RDD of Items supports heterogeneity").
  */
sealed abstract class Item extends Serializable {
  def isAtomic: Boolean  = false
  def isObject: Boolean  = false
  def isArray: Boolean   = false
  def isNull: Boolean    = false
  def isNumeric: Boolean = false
  def isString: Boolean  = false
  def isBoolean: Boolean = false
  def isInteger: Boolean = false

  /** String value for string items; error otherwise. */
  def stringValue: String = throw new RumbleException("XPTY0004", s"not a string: $this")

  /** Numeric value as double (integers, decimals, doubles). */
  def numericDouble: Double = throw new RumbleException("XPTY0004", s"not a number: $this")

  /** Exact numeric value, a double's binary value (NaN and ±INF have none). */
  def decimalValue: java.math.BigDecimal = throw new RumbleException("XPTY0004", s"not a number: $this")

  def booleanValue: Boolean = throw new RumbleException("XPTY0004", s"not a boolean: $this")

  /** Object member lookup; None for missing keys or non-objects. */
  def lookup(key: String): Option[Item] = None

  /** Array members; empty for non-arrays. */
  def arrayValues: Vector[Item] = Vector.empty

  /** Effective boolean value of a singleton item (JSONiq §EBV). */
  def effectiveBoolean: Boolean = throw new RumbleException(
    "FORG0006", s"effective boolean value undefined for $this")

  /** Canonical string form used by string(); error on objects/arrays
    * (JSONiq does not define string() on structured items). */
  def castToString: String =
    throw new RumbleException("XPTY0004", s"string() undefined for $this")
}

/** Atomic items: string, number, boolean, null (paper: JDM atomics). */
sealed abstract class AtomicItem extends Item {
  override def isAtomic: Boolean = true
}

final case class StringItem(value: String) extends AtomicItem {
  override def isString: Boolean         = true
  override def stringValue: String       = value
  override def effectiveBoolean: Boolean = value.nonEmpty
  override def castToString: String      = value
}

/** JSONiq integer (we use 64-bit; the paper's implementation likewise
  * maps JSON integers to a dedicated integer item type). */
final case class IntItem(value: Long) extends AtomicItem {
  override def isNumeric: Boolean        = true
  override def isInteger: Boolean        = true
  override def numericDouble: Double     = value.toDouble
  override def decimalValue: java.math.BigDecimal = java.math.BigDecimal.valueOf(value)
  override def effectiveBoolean: Boolean = value != 0L
  override def castToString: String      = value.toString
}

final case class DoubleItem(value: Double) extends AtomicItem {
  override def isNumeric: Boolean        = true
  override def numericDouble: Double     = value
  override def decimalValue: java.math.BigDecimal = new java.math.BigDecimal(value)
  override def effectiveBoolean: Boolean = value != 0.0 && !value.isNaN
  override def castToString: String =
    if (value == math.floor(value) && !value.isInfinite && math.abs(value) < 1e15)
      value.toLong.toString
    else value.toString
}

final case class DecimalItem(value: BigDecimal) extends AtomicItem {
  override def isNumeric: Boolean        = true
  override def numericDouble: Double     = value.toDouble
  override def decimalValue: java.math.BigDecimal = value.bigDecimal
  override def effectiveBoolean: Boolean = value.signum != 0
  override def castToString: String      = value.bigDecimal.toPlainString
}

final case class BooleanItem(value: Boolean) extends AtomicItem {
  override def isBoolean: Boolean        = true
  override def booleanValue: Boolean     = value
  override def effectiveBoolean: Boolean = value
  override def castToString: String      = value.toString
}

case object NullItem extends AtomicItem {
  override def isNull: Boolean           = true
  override def effectiveBoolean: Boolean = false
  override def castToString: String      = "null"
}

/** JSON object: ordered fields (insertion order preserved, as JSON text).
  * Lookup scans linearly for small objects — building a hash map per
  * object would dominate the per-record cost on the json-file hot path —
  * and falls back to a lazy index for wide objects. */
final case class ObjectItem(fields: Vector[(String, Item)]) extends Item {
  override def isObject: Boolean = true
  // built from the last field back, so a repeated key maps to its first value
  @transient private lazy val index: Map[String, Item] = fields.reverseIterator.toMap
  override def lookup(key: String): Option[Item] =
    if (fields.size <= 12) {
      var i = 0
      while (i < fields.size) {
        if (fields(i)._1 == key) return Some(fields(i)._2)
        i += 1
      }
      None
    } else index.get(key)
  def keys: Vector[String]               = fields.map(_._1)
  override def effectiveBoolean: Boolean = true
}

/** JSON array: ordered list of items. */
final case class ArrayItem(values: Vector[Item]) extends Item {
  override def isArray: Boolean          = true
  override def arrayValues: Vector[Item] = values
  override def effectiveBoolean: Boolean = true
}

object Item {

  /** The integer `v`: an `IntItem` when it fits in a `Long`, else a
    * `DecimalItem`, as JSON input and integer literals read past that range. */
  def integer(v: BigDecimal): Item = if (v.isValidLong) IntItem(v.toLong) else DecimalItem(v)

  /** The integer part of `v`, truncated toward zero, as [[integer]]. */
  def integerPart(v: java.math.BigDecimal): Item =
    integer(BigDecimal(v.setScale(0, java.math.RoundingMode.DOWN)))

  /** Effective boolean value of a sequence (JSONiq): empty → false, one
    * item → its EBV, several starting with an object or array → true, other
    * sequences FORG0006. It pulls at most two items. */
  def effectiveBooleanValue(seq: IterableOnce[Item]): Boolean = {
    val it = seq.iterator
    if (!it.hasNext) false
    else {
      val first = it.next()
      if (!it.hasNext) first.effectiveBoolean
      else if (first.isObject || first.isArray) true
      else throw new RumbleException("FORG0006", "EBV undefined for a sequence of several atomics")
    }
  }
}
