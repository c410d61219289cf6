package org.apache.spark

/** Waits until Spark's listener bus has delivered every event posted so
  * far, so that a query's task-end events are counted before its metrics
  * are read. The bus is private to Spark, hence this object's package. */
object BusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
