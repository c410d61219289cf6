package perfbench

import scala.collection.mutable.ArrayBuffer

/** A span: a named interval with the span that caused it (`parent` = -1 at
  * the root). Times are epoch milliseconds, so Spark's job and stage times
  * line up with the benchmark's own. */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double,
                      query: String)

/** Spans kept in memory while the benchmark runs and written out when it
  * ends. Only the benchmark's own code records them, around its calls into
  * the engine; nothing inside the engine is traced. */
final class Trace {
  private val spans   = ArrayBuffer.empty[Span]
  private val baseMs  = System.currentTimeMillis().toDouble
  private val baseNs  = System.nanoTime()
  private var nextId  = 0

  def nowMs: Double = baseMs + (System.nanoTime() - baseNs) / 1e6

  def add(parent: Int, name: String, startMs: Double, endMs: Double, query: String = ""): Int = {
    val id = nextId
    nextId += 1
    spans += Span(id, parent, name, startMs, endMs, query)
    id
  }

  /** Run `f` inside a span; `f` receives the span's id for its children. */
  def span[T](parent: Int, name: String, query: String = "")(f: Int => T): T = {
    val id    = nextId
    nextId += 1
    val start = nowMs
    val slot  = spans.size
    spans += Span(id, parent, name, start, start, query)
    try f(id)
    finally spans(slot) = spans(slot).copy(endMs = nowMs)
  }

  /** Add the Spark jobs and stages a query ran as children of `parent`. */
  def addSpark(parent: Int, query: String, s: QuerySpark): Unit =
    s.jobs.foreach { j =>
      val jid = add(parent, s"job ${j.jobId}", j.startMs.toDouble, j.endMs.toDouble, query)
      s.stages.filter(st => j.stageIds.contains(st.stageId)).foreach { st =>
        add(jid, s"stage ${st.stageId}", st.startMs.toDouble, st.endMs.toDouble, query)
      }
    }

  def toJson: Seq[Map[String, Any]] = spans.toSeq.map { s =>
    Map("id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ms" -> s.startMs, "end_ms" -> s.endMs, "query" -> s.query)
  }
}
