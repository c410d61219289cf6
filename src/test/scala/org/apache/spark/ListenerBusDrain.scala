package org.apache.spark

/** Waits until Spark's listener bus has delivered every event posted so
  * far, so that a test counts a query's jobs only after they all arrived.
  * The bus is private to Spark, hence this object's package. */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
