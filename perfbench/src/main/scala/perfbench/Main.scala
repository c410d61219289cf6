package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer
import scala.util.{Failure, Success, Try}
import org.apache.spark.sql.SparkSession
import repro.core.Rumble
import repro.datasets.ConfusionData

/** The benchmark's JVM side. It sets up, runs one workload's query in a
  * closed loop (one client, one query at a time) for the given number of
  * seconds, checks every answer, and writes the raw samples, spans and
  * provenance to `--out` as JSON. run.py builds this program, launches it
  * and turns the raw file into metrics.
  *
  * The window opens after [[SettleSeconds]] of further untimed queries.
  * Untraced (`--trace 0`) only the query's wall time and the executor CPU
  * time of its tasks are taken. Traced (`--trace 1`) the first half of the
  * window runs untraced and the second half traced, then the per-layer
  * measurements of [[Layers]] follow.
  */
object Main {

  /** Set-up is repeated this many times; run.py reports the median. */
  val SetupReps = 3

  /** Queries run this long after set-up before the window opens, untimed:
    * the DataFrame workloads' driver code takes a few queries to compile. */
  val SettleSeconds = 2.5

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        work: File, out: File)

  def parseArgs(args: Array[String]): Args = {
    val m = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble, need("trace") == "1",
         new File(need("work")), new File(need("out")))
  }

  def session(cores: Int): SparkSession =
    SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.driver.bindAddress", "127.0.0.1")
      .getOrCreate()

  def main(argv: Array[String]): Unit = {
    val args  = parseArgs(argv)
    val w     = Workloads.byName(args.workload)
    val cores = Runtime.getRuntime.availableProcessors
    args.work.mkdirs()
    val input = new File(args.work, "input").getAbsolutePath
    val queries = ArrayBuffer.empty[Map[String, Any]]

    // Set-up: session start, input generation from the seed, one warm-up
    // query. The expected answer is counted by raw Spark once, untimed.
    val setups = ArrayBuffer.empty[Double]
    var spark: SparkSession = null
    var expect: Expected    = null
    for (k <- 1 to SetupReps) {
      if (spark != null) spark.stop()
      Files.delete(new File(input))
      val t0 = System.nanoTime()
      spark = session(cores)
      ConfusionData.generate(spark, input, w.objects, partitions = 4 * cores, seed = args.seed)
      val generated = (System.nanoTime() - t0) / 1e9
      if (expect == null)
        expect = Expected(w.objects, repro.baselines.RawSparkBaseline.filterQuery(spark, input))
      val t1 = System.nanoTime()
      val warm = runOnce(spark, new Rumble(spark), w, input, args.work, expect, s"warmup-$k")
      setups += generated + (System.nanoTime() - t1) / 1e9
      queries += warm.record ++ Map("phase" -> "warmup")
    }

    val sc     = spark.sparkContext
    val rumble = new Rumble(spark)
    val probe  = new Probe(sc)
    val trace  = new Trace

    def loop(root: Int, phase: String, seconds: Double, traced: Boolean): Unit = {
      probe.traced = traced
      val end = System.nanoTime() + (seconds * 1e9).toLong
      var i   = 0
      while (System.nanoTime() < end) {
        val qid = s"$phase-$i"
        val r =
          if (!traced) runOnce(spark, rumble, w, input, args.work, expect, qid, Some(probe))
          else trace.span(root, "rep", qid) { rep =>
            runOnce(spark, rumble, w, input, args.work, expect, qid, Some(probe), Some((trace, rep)))
          }
        queries += r.record ++ Map("phase" -> phase)
        i += 1
      }
      probe.traced = false
    }

    val layers = trace.span(-1, s"workload ${w.name}") { root =>
      loop(root, "settle", SettleSeconds, traced = false)
      if (!args.trace) {
        loop(root, "measure", args.seconds, traced = false)
        Map.empty[String, Seq[Double]]
      } else {
        loop(root, "measure", args.seconds / 2, traced = false)
        loop(root, "traced", args.seconds / 2, traced = true)
        new Layers(spark, w, args.seed, input, args.work).measure()
      }
    }

    val provenance = Map(
      "cores"            -> cores,
      "max_heap_mb"      -> Runtime.getRuntime.maxMemory / (1 << 20),
      "spark_version"    -> spark.version,
      "jdk_version"      -> System.getProperty("java.version"),
      "seed"             -> args.seed,
      "input_objects"    -> w.objects,
      "input_bytes"      -> Files.sizeOf(new File(input)),
      "expected_matches" -> expect.matches,
    )
    val raw = Map(
      "workload"   -> w.name,
      "traced"     -> args.trace,
      "provenance" -> provenance,
      "setup_s"    -> setups.toSeq,
      "queries"    -> queries.toSeq,
      "layers"     -> layers,
      "spans"      -> (if (args.trace) trace.toJson else Nil),
    )
    val pw = new PrintWriter(args.out, "UTF-8")
    try pw.write(Json.encode(raw)) finally pw.close()
    spark.stop()
  }

  /** One query with its answer check and the cache reading taken after it. */
  final case class QueryRun(id: String, wallS: Double, cpuS: Double, failure: Option[String],
                            retainedMb: Double, cachedRdds: Int, spark: Option[QuerySpark]) {
    def record: Map[String, Any] = Map(
      "id" -> id, "wall_s" -> wallS, "cpu_s" -> cpuS, "ok" -> failure.isEmpty,
      "failure" -> failure, "retained_mb" -> retainedMb, "cached_rdds" -> cachedRdds,
      "spark" -> spark.map(Main.sparkRecord))
  }

  /** Runs `w` once through the façade inside job group `id`. After the
    * answer is checked, the storage still held is read; only then are the
    * cached RDDs the query left behind released, so that the next query
    * starts from the same state.
    *
    * Traced, the query span holds a compile span (an extra `compile` of the
    * same query, since the façade's entry points compile internally) and an
    * execute span, under which the query's Spark jobs and stages go. */
  def runOnce(spark: SparkSession, rumble: Rumble, w: Workload, input: String, work: File,
              expect: Expected, id: String, probe: Option[Probe] = None,
              trace: Option[(Trace, Int)] = None): QueryRun = {
    val sc  = spark.sparkContext
    val out = new File(work, "out").getAbsolutePath
    Files.delete(new File(out))
    sc.setJobGroup(id, id)
    val cpu0 = probe.fold(0.0)(_.cpuSeconds)
    var sparkParent = -1
    val t0   = System.nanoTime()
    val answer = trace match {
      case None => Try(w.run(rumble, input, out, expect))
      case Some((t, rep)) =>
        t.span(rep, "query", id) { q =>
          sparkParent = q
          t.span(q, "compile", id)(_ => Try(rumble.compile(w.query(input))))
            .flatMap(_ => t.span(q, "execute", id) { ex =>
              sparkParent = ex
              Try(w.run(rumble, input, out, expect))
            })
        }
    }
    val wall = (System.nanoTime() - t0) / 1e9
    val cpu  = probe.fold(0.0)(_.cpuSeconds - cpu0)
    sc.clearJobGroup()
    val sparkRec = trace.map { case (t, _) =>
      val s = probe.get.take(id)
      t.addSpark(sparkParent, id, s)
      s
    }
    val failure = answer match {
      case Success(check) => Try(check()).fold(e => Some(s"check threw $e"), identity)
      case Failure(e)     => Some(s"query threw $e")
    }
    val retained = sc.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum / 1e6
    val cached   = sc.getPersistentRDDs.size
    spark.catalog.clearCache()
    sc.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    Files.delete(new File(out))
    QueryRun(id, wall, cpu, failure, retained, cached, sparkRec)
  }

  def sparkRecord(s: QuerySpark): Map[String, Any] = {
    val t = s.tasks
    val stageTasks = t.groupBy(_.stageId).toSeq.sortBy(_._1).map(_._2.map(_.durationMs.toDouble))
    Map(
      "jobs"                -> s.jobs.size,
      "stages"              -> s.stages.size,
      "tasks"               -> t.size,
      "failed_tasks"        -> t.count(_.failed),
      "task_run_s"          -> t.map(_.runMs).sum / 1e3,
      "gc_s"                -> t.map(_.gcMs).sum / 1e3,
      "task_deser_s"        -> t.map(_.deserMs).sum / 1e3,
      "input_records"       -> t.map(_.inputRecords).sum,
      "output_mb"           -> t.map(_.outputBytes).sum / 1e6,
      "shuffle_write_mb"    -> t.map(_.shuffleWriteBytes).sum / 1e6,
      "shuffle_read_mb"     -> t.map(_.shuffleReadBytes).sum / 1e6,
      "shuffle_fetch_wait_s"-> t.map(_.fetchWaitMs).sum / 1e3,
      "spill_mb"            -> t.map(_.spillBytes).sum / 1e6,
      "result_mb"           -> t.map(_.resultBytes).sum / 1e6,
      "peak_exec_mem_mb"    -> (if (t.isEmpty) 0.0 else t.map(_.peakExecMem).max / 1e6),
      "stage_task_ms"       -> stageTasks,
      "job_spans_ms"        -> s.jobs.map(j => Seq(j.startMs.toDouble, j.endMs.toDouble)),
    )
  }
}
