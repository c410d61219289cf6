package perfbench

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong
import scala.jdk.CollectionConverters._
import org.apache.spark.{BusDrain, SparkContext, Success}
import org.apache.spark.scheduler._

/** One finished task, as its task-end event reports it. */
final case class TaskRec(
    stageId: Int, durationMs: Long, failed: Boolean, runMs: Long, cpuNs: Long,
    gcMs: Long, deserMs: Long, inputRecords: Long, outputBytes: Long,
    shuffleWriteBytes: Long, shuffleReadBytes: Long, fetchWaitMs: Long,
    spillBytes: Long, resultBytes: Long, peakExecMem: Long)

final case class JobRec(jobId: Int, group: String, startMs: Long, stageIds: Seq[Int],
                        var endMs: Long = -1L)

final case class StageRec(stageId: Int, startMs: Long, endMs: Long)

/** Everything Spark ran for one traced query. */
final case class QuerySpark(jobs: Seq[JobRec], stages: Seq[StageRec], tasks: Seq[TaskRec])

/** The benchmark's Spark listener. Untraced, it only sums executor CPU time
  * from task-end events, which Spark posts whether or not anyone listens.
  * Traced, it also keeps every job, stage and task, which `take` ties to a
  * query through the job group the benchmark sets before calling the engine.
  */
final class Probe(sc: SparkContext) extends SparkListener {
  @volatile var traced: Boolean = false
  private val cpuNs  = new AtomicLong
  private val tasks  = new ConcurrentLinkedQueue[TaskRec]
  private val jobs   = new ConcurrentLinkedQueue[JobRec]
  private val stages = new ConcurrentLinkedQueue[StageRec]

  sc.addSparkListener(this)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    if (m != null) cpuNs.addAndGet(m.executorCpuTime + m.executorDeserializeCpuTime)
    if (traced && m != null)
      tasks.add(TaskRec(
        e.stageId, e.taskInfo.duration, e.reason != Success, m.executorRunTime,
        m.executorCpuTime + m.executorDeserializeCpuTime, m.jvmGCTime,
        m.executorDeserializeTime, m.inputMetrics.recordsRead, m.outputMetrics.bytesWritten,
        m.shuffleWriteMetrics.bytesWritten, m.shuffleReadMetrics.totalBytesRead,
        m.shuffleReadMetrics.fetchWaitTime, m.diskBytesSpilled, m.resultSize,
        m.peakExecutionMemory))
  }

  override def onJobStart(e: SparkListenerJobStart): Unit =
    if (traced) {
      val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      jobs.add(JobRec(e.jobId, group.getOrElse(""), e.time, e.stageIds))
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    if (traced) jobs.asScala.find(_.jobId == e.jobId).foreach(_.endMs = e.time)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    if (traced) {
      val i = e.stageInfo
      stages.add(StageRec(i.stageId, i.submissionTime.getOrElse(-1L),
                          i.completionTime.getOrElse(-1L)))
    }

  /** Executor CPU seconds summed over every task ended so far. */
  def cpuSeconds: Double = { BusDrain(sc); cpuNs.get / 1e9 }

  /** The jobs of `group`, the stages they ran and those stages' tasks;
    * clears what has been kept so far. */
  def take(group: String): QuerySpark = {
    BusDrain(sc)
    val js  = jobs.asScala.filter(_.group == group).toVector
    val ids = js.flatMap(_.stageIds).toSet
    val out = QuerySpark(js, stages.asScala.filter(s => ids(s.stageId)).toVector,
                         tasks.asScala.filter(t => ids(t.stageId)).toVector)
    jobs.clear(); stages.clear(); tasks.clear()
    out
  }
}
