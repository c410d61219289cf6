package repro.core.runtime.flwor

import org.apache.spark.sql.Row
import org.apache.spark.sql.types.{BinaryType, StructField, StructType}
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

/** Maps in-scope FLWOR variables to DataFrame column names (paper §4.3:
  * tuple streams are structured — same variables in every tuple — so they
  * map to a DataFrame with one column per variable, each cell a serialized
  * sequence of items).
  *
  * Columns get fresh sanitized names (`v3_count`) so JSONiq names with
  * hyphens etc. are legal and variable *redeclaration* (paper §4.5) simply
  * drops the shadowed column.
  */
final case class TupleSchema(entries: Vector[(String, String)], nextId: Int) {
  def vars: Vector[String] = entries.map(_._1)
  def cols: Vector[String] = entries.map(_._2)

  def colOf(name: String): String =
    entries.find(_._1 == name).map(_._2).getOrElse(
      throw new IllegalStateException(s"variable $$$name not in tuple schema"))

  def hasVar(name: String): Boolean = entries.exists(_._1 == name)

  /** Bind (or rebind) a variable; returns the new schema and its column. */
  def withVar(name: String): (TupleSchema, String) = {
    val col = s"v${nextId}_" + name.replaceAll("[^A-Za-z0-9]", "_")
    (TupleSchema(entries.filterNot(_._1 == name) :+ ((name, col)), nextId + 1), col)
  }

  /** The entries of `names` only, in schema order. */
  def restrictedTo(names: Seq[String]): TupleSchema =
    TupleSchema(entries.filter(e => names.contains(e._1)), nextId)

  /** Spark schema of the tuple-stream DataFrame: all-binary columns. */
  def structType: StructType =
    StructType(cols.map(c => StructField(c, BinaryType, nullable = true)))
}

object TupleSchema {
  val empty: TupleSchema = TupleSchema(Vector.empty, 0)

  /** Rebuild a dynamic context from a DataFrame row laid out per `schema`
    * (used inside Spark closures; `base` must already be `enterClosure`d). */
  def contextFromRow(row: Row, schema: TupleSchema, base: DynamicContext): DynamicContext =
    base.bindAll(
      schema.entries.indices.map { i =>
        schema.entries(i)._1 -> ItemSerde.deserializeSeq(row.getAs[Array[Byte]](i))
      }.toMap)

  /** Same, from the cells of an `array(binary)` UDF argument. */
  def contextFromCells(cells: Seq[Array[Byte]], varNames: Seq[String],
                       base: DynamicContext): DynamicContext =
    base.bindAll(
      varNames.indices.map(i => varNames(i) -> ItemSerde.deserializeSeq(cells(i))).toMap)

  /** Serialize a tuple into a Row laid out per `schema`. */
  def rowFromTuple(t: FlworTuple, schema: TupleSchema): Row =
    Row.fromSeq(schema.vars.map(v => ItemSerde.serializeSeq(t.bindings.getOrElse(v, Nil))))
}
