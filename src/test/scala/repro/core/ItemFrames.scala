package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.core.json.JsonWriter
import repro.core.model._

/** A (small) result of object items as a typed DataFrame, to compare it
  * with the DuckDB oracle (`repro.Oracle`). Columns are the union of keys in
  * first-seen order; a column is LongType if every present value is an
  * integer, DoubleType if every present value is numeric, BooleanType
  * likewise, else StringType. Any other item is RBML0003. */
object ItemFrames {

  def apply(spark: SparkSession, items: Seq[Item]): DataFrame = {
    val objects = items.map {
      case o: ObjectItem => o
      case other =>
        throw new RumbleException("RBML0003", s"runToDataFrame needs object items, got $other")
    }
    val cols = {
      val seen = scala.collection.mutable.LinkedHashSet.empty[String]
      objects.foreach(_.keys.foreach(seen.add))
      seen.toVector
    }
    def colType(values: Seq[Item]): DataType = {
      val present = values.filterNot(_.isNull)
      if (present.nonEmpty && present.forall(_.isInteger)) LongType
      else if (present.nonEmpty && present.forall(_.isNumeric)) DoubleType
      else if (present.nonEmpty && present.forall(_.isBoolean)) BooleanType
      else StringType
    }
    val types = cols.map(c => colType(objects.flatMap(_.lookup(c))))
    val schema = StructType(cols.zip(types).map { case (c, t) =>
      StructField(c, t, nullable = true)
    })
    val rows = objects.map { o =>
      Row.fromSeq(cols.zip(types).map { case (c, t) =>
        o.lookup(c) match {
          case None | Some(NullItem) => null
          case Some(v) =>
            t match {
              case LongType    => v.asInstanceOf[IntItem].value
              case DoubleType  => v.numericDouble
              case BooleanType => v.booleanValue
              case _ =>
                v match {
                  case s: StringItem   => s.stringValue
                  case a if a.isAtomic => a.castToString
                  case other           => JsonWriter.write(other)
                }
            }
        }
      })
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows.toSeq, 1), schema)
  }
}
