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
  override def effectiveBoolean: Boolean = value != 0L
  override def castToString: String      = value.toString
}

final case class DoubleItem(value: Double) extends AtomicItem {
  override def isNumeric: Boolean        = true
  override def numericDouble: Double     = value
  override def effectiveBoolean: Boolean = value != 0.0 && !value.isNaN
  override def castToString: String =
    if (value == math.floor(value) && !value.isInfinite && math.abs(value) < 1e15)
      value.toLong.toString
    else value.toString
}

final case class DecimalItem(value: BigDecimal) extends AtomicItem {
  override def isNumeric: Boolean        = true
  override def numericDouble: Double     = value.toDouble
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

  /** Effective boolean value of a sequence (JSONiq): empty → false,
    * singleton → item EBV, multi-item starting with a node-ish item → true,
    * otherwise error. We keep the common cases. */
  def effectiveBooleanValue(seq: Seq[Item]): Boolean = seq match {
    case Seq()     => false
    case Seq(item) => item.effectiveBoolean
    case other =>
      if (other.head.isObject || other.head.isArray) true
      else throw new RumbleException("FORG0006", s"EBV undefined for sequence of ${other.size}")
  }

  /** Total order on comparable atomics: null < booleans < (strings|numbers).
    * Strings and numbers are mutually incomparable (XPTY0004), matching the
    * paper's order-by semantics (§4.8: "an error is thrown if there is a
    * string and a number"). Two integers compare exactly as `Long`s. */
  def compareAtomics(a: Item, b: Item): Int = (a, b) match {
    case (NullItem, NullItem)                 => 0
    case (NullItem, _)                        => -1
    case (_, NullItem)                        => 1
    case (BooleanItem(x), BooleanItem(y))     => java.lang.Boolean.compare(x, y)
    case (IntItem(x), IntItem(y))             => java.lang.Long.compare(x, y)
    case (x, y) if x.isNumeric && y.isNumeric =>
      java.lang.Double.compare(x.numericDouble, y.numericDouble)
    case (StringItem(x), StringItem(y))       => x.compareTo(y)
    case _ =>
      throw new RumbleException("XPTY0004", s"items not comparable: $a vs $b")
  }

  /** Atomic equality for value comparisons and grouping: null equals only
    * null; two integers compare exactly, other numbers as doubles across
    * numeric types; otherwise type + value. */
  def atomicEquals(a: Item, b: Item): Boolean = (a, b) match {
    case (NullItem, NullItem)                 => true
    case (IntItem(x), IntItem(y))             => x == y
    case (x, y) if x.isNumeric && y.isNumeric => x.numericDouble == y.numericDouble
    case (StringItem(x), StringItem(y))       => x == y
    case (BooleanItem(x), BooleanItem(y))     => x == y
    case _                                    => false
  }

  /** The paper's group-by type-rank encoding (§4.7): 1 empty sequence,
    * 2 null, 3 true, 4 false, 5 string, 6 number (7 = empty-greatest). */
  def groupTypeRank(seq: Seq[Item], emptyGreatest: Boolean = false): Int =
    if (seq.isEmpty) { if (emptyGreatest) 7 else 1 }
    else if (seq.lengthCompare(1) > 0)
      throw new RumbleException("XPTY0004", "grouping key must be a singleton or empty")
    else seq.head match {
      case NullItem             => 2
      case BooleanItem(b)       => if (b) 3 else 4
      case s if s.isString      => 5
      case n if n.isNumeric     => 6
      case other =>
        throw new RumbleException("XPTY0004", s"grouping key must be atomic, got $other")
    }

  /** Order-by rank: empty least/greatest at the extremes, null, then
    * false < true, then the single compatible value type. */
  def orderTypeRank(seq: Seq[Item], emptyGreatest: Boolean): Int =
    if (seq.isEmpty) { if (emptyGreatest) 9 else 0 }
    else if (seq.lengthCompare(1) > 0)
      throw new RumbleException("XPTY0004", "sort key must be a singleton or empty")
    else seq.head match {
      case NullItem         => 1
      case BooleanItem(b)   => if (b) 3 else 2
      case s if s.isString  => 4
      case n if n.isNumeric => 5
      case other =>
        throw new RumbleException("XPTY0004", s"sort key must be atomic, got $other")
    }
}
