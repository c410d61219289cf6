package repro.core.runtime.flwor

import org.apache.spark.sql.Row
import org.apache.spark.sql.types._
import repro.core.model.{Item, ItemSerde}
import repro.core.runtime.DynamicContext

/** A FLWOR tuple (paper §4.2): a mapping from variable names to locally
  * materialized sequences of items. Tuples are the unit flowing between
  * clauses; they are *not* database tuples.
  */
final case class FlworTuple(bindings: Map[String, List[Item]]) extends Serializable {
  def updated(name: String, seq: List[Item]): FlworTuple =
    FlworTuple(bindings.updated(name, seq))
}

object FlworTuple {
  val empty: FlworTuple = FlworTuple(Map.empty)
}

/** The cells of a tuple in a DataFrame row (paper §4.3): tuple streams are
  * structured — every tuple binds the clause's in-scope variables
  * ([[ClauseIterator.vars]]) — so each variable maps to one binary cell
  * holding its serialized sequence of items. Such rows exist only at a
  * `group by` or `order by`, where the live tuples are encoded for the
  * shuffle. A shuffle row holds, in order: per key `i` its [[KeyEncoder]]
  * rank `k<i>_r` and value `k<i>_s`; the cells `c<i>`; and, for a group by's
  * partial groups, the summed lengths `n<i>` and the item cells `m<i>`.
  */
object TupleSchema {

  def key(i: Int): Seq[String] = Seq(s"k${i}_r", s"k${i}_s")
  def cell(i: Int): String     = s"c$i"
  def count(i: Int): String    = s"n$i"
  def items(i: Int): String    = s"m$i"

  /** The schema of shuffle rows with these numbers of keys, cells, lengths and item cells. */
  def shuffleRow(keys: Int, cells: Int, counts: Int = 0, itemCells: Int = 0): StructType =
    StructType((0 until keys).flatMap(i => Seq(
      StructField(key(i).head, IntegerType, nullable = false),
      StructField(key(i).last, StringType, nullable = false))) ++
      (0 until cells).map(i => StructField(cell(i), BinaryType)) ++
      (0 until counts).map(i => StructField(count(i), LongType)) ++
      (0 until itemCells).map(i => StructField(items(i), BinaryType)))

  /** Decode the cells of `varNames`, in that order, into their bindings. */
  private def bindingsOf(cells: Seq[Array[Byte]], varNames: Seq[String]): Map[String, List[Item]] =
    varNames.indices.map(i => varNames(i) -> ItemSerde.deserializeSeq(cells(i))).toMap

  /** Rebuild a tuple from a row holding the cells of `varNames`, in order. */
  def tupleFromRow(row: Row, varNames: Seq[String]): FlworTuple =
    FlworTuple(bindingsOf(varNames.indices.map(row.getAs[Array[Byte]]), varNames))

  /** A dynamic context binding the cells of `varNames` (`base` must already
    * be `enterClosure`d when used inside Spark closures). */
  def contextFromCells(cells: Seq[Array[Byte]], varNames: Seq[String],
                       base: DynamicContext): DynamicContext =
    base.bindAll(bindingsOf(cells, varNames))

  /** Serialize a tuple into a Row: the `prefix` columns, then one cell per
    * variable of `varNames`, in order. */
  def rowFromTuple(t: FlworTuple, varNames: Seq[String], prefix: Seq[Any] = Nil): Row =
    Row.fromSeq(prefix ++ varNames.map(v => ItemSerde.serializeSeq(t.bindings.getOrElse(v, Nil))))
}
