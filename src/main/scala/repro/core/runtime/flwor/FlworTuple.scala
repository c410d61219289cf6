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
  * sequence of items). Such a DataFrame exists only at a `group by` or
  * `order by`, where the live tuples are encoded for the shuffle.
  *
  * Columns get fresh sanitized names (`v3_count`) so JSONiq names with
  * hyphens etc. are legal and variable *redeclaration* (paper §4.5) simply
  * drops the shadowed column.
  */
final case class TupleSchema(entries: Vector[(String, String)], nextId: Int) {
  def vars: Vector[String] = entries.map(_._1)
  def cols: Vector[String] = entries.map(_._2)

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

  /** Decode the cells of `varNames`, in that order, into their bindings. */
  private def bindingsOf(cells: Seq[Array[Byte]], varNames: Seq[String]): Map[String, List[Item]] =
    varNames.indices.map(i => varNames(i) -> ItemSerde.deserializeSeq(cells(i))).toMap

  /** Rebuild a tuple from a DataFrame row laid out per `schema`. */
  def tupleFromRow(row: Row, schema: TupleSchema): FlworTuple =
    FlworTuple(bindingsOf(schema.cols.indices.map(row.getAs[Array[Byte]]), schema.vars))

  /** A dynamic context binding the cells of `varNames` (`base` must already
    * be `enterClosure`d when used inside Spark closures). */
  def contextFromCells(cells: Seq[Array[Byte]], varNames: Seq[String],
                       base: DynamicContext): DynamicContext =
    base.bindAll(bindingsOf(cells, varNames))

  /** Serialize a tuple into a Row laid out per `schema`, after the `prefix`
    * columns. */
  def rowFromTuple(t: FlworTuple, schema: TupleSchema, prefix: Seq[Any] = Nil): Row =
    Row.fromSeq(prefix ++ schema.vars.map(v => ItemSerde.serializeSeq(t.bindings.getOrElse(v, Nil))))
}
