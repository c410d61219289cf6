package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.Rumble
import repro.core.model.Item
import repro.core.runtime.{HeapModel, RumbleConf}

/** Single-threaded JSONiq engine stand-ins for the §6.3 comparison.
  *
  * '''Substitution''': Zorba (C++) and Xidel (Pascal) binaries are not
  * available offline. Both stand-ins run the *same* JSONiq front-end but
  * with Spark disabled, reproducing the architectural properties the paper
  * measures:
  *
  *  - '''Zorba-sim''': streaming single-threaded iterators; group-by and
  *    order-by materialize the tuple stream, bounded by a modeled heap →
  *    like the real Zorba it filters any size but runs out of memory on
  *    group/sort past a threshold.
  *  - '''Xidel-sim''': loads the *entire* parsed input into memory before
  *    evaluating (DOM style), then runs the query on zorba-sim, so it
  *    parses every line twice → slower everywhere, DNFs on every query
  *    past its heap cap, like the real Xidel in Fig. 12.
  */
object SingleThreadedEngines {

  /** Zorba stand-in: streaming, single-threaded, heap-capped group/sort. */
  def zorbaSim(spark: SparkSession, heapCapItems: Option[Long]): Rumble =
    new Rumble(spark, RumbleConf(forceLocal = true, heapModelCap = heapCapItems))

  /** Xidel stand-in over the JSON-Lines file `input`: loads it, then runs. */
  def xidelSim(spark: SparkSession, heapCapItems: Option[Long], input: String): XidelSim =
    new XidelSim(zorbaSim(spark, heapCapItems), heapCapItems, input)
}

/** Xidel-sim: every query first loads all of `input` into a buffer that
  * counts against the modeled heap, then runs on the zorba-sim `engine`. */
final class XidelSim(engine: Rumble, heapCapItems: Option[Long], input: String) {

  def runCount(query: String): Long = {
    val document = scala.collection.mutable.ArrayBuffer.empty[Item]
    engine.runIterator(s"""json-file("$input")""").foreach { i =>
      HeapModel.check(heapCapItems, document.size + 1L)
      document += i
    }
    engine.runCount(query)
  }
}
