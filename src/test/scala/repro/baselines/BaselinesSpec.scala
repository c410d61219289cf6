package repro.baselines

import repro.bench.RumbleQueries
import repro.core.RumbleSpec
import repro.core.model.HeapModelExceeded
import repro.datasets.ConfusionData

/** Every baseline must agree with Rumble on query *results* before it is
  * trusted for timing; the single-threaded stand-ins must reproduce the
  * paper's DNF behaviour via the heap model. */
class BaselinesSpec extends RumbleSpec {

  private val n = 4000
  private lazy val dir: String = {
    val d = java.nio.file.Files.createTempDirectory("bl").resolve("conf").toString
    ConfusionData.generate(spark, d, n, partitions = 4)
  }
  private lazy val file: String = {
    val f = new java.io.File(
      java.nio.file.Files.createTempDirectory("bl2").toFile, "c.json").getAbsolutePath
    ConfusionData.generateLocalFile(f, n)
  }

  private lazy val rumbleFilterCount = rumble.runCount(RumbleQueries.filter(dir))
  private lazy val rumbleGroupCount  = rumble.runCount(RumbleQueries.group(dir))

  test("raw Spark filter agrees with Rumble") {
    assert(RawSparkBaseline.filterQuery(spark, dir) == rumbleFilterCount)
    assert(rumbleFilterCount > 0 && rumbleFilterCount < n)
  }

  test("Spark SQL filter agrees with Rumble") {
    assert(SparkSqlBaseline.filterQuery(spark, dir) == rumbleFilterCount)
  }

  test("PySpark-sim filter agrees with Rumble") {
    assert(PySparkSimBaseline.filterQuery(spark, dir) == rumbleFilterCount)
  }

  test("raw Spark / Spark SQL / PySpark-sim group agree with Rumble") {
    assert(RawSparkBaseline.groupQuery(spark, dir) == rumbleGroupCount)
    assert(SparkSqlBaseline.groupQuery(spark, dir) == rumbleGroupCount)
    assert(PySparkSimBaseline.groupQuery(spark, dir) == rumbleGroupCount)
  }

  test("sort baselines produce the same multiset of records as Rumble") {
    val tmp = java.nio.file.Files.createTempDirectory("sortout")
    def read(out: String): Set[String] =
      spark.sparkContext.textFile(out).collect().toSet
    val rOut = s"$tmp/rumble"; val sOut = s"$tmp/spark"; val pOut = s"$tmp/py"
    rumble.writeJsonLines(RumbleQueries.sort(dir), rOut)
    RawSparkBaseline.sortQuery(spark, dir, sOut)
    PySparkSimBaseline.sortQuery(spark, dir, pOut)
    val r = read(rOut)
    assert(r.size.toLong == rumbleFilterCount)
    assert(read(sOut) == r)
    assert(read(pOut) == r)
  }

  test("raw Spark sort writes globally sorted output") {
    val out = java.nio.file.Files.createTempDirectory("sorted").toString + "/x"
    RawSparkBaseline.sortQuery(spark, dir, out)
    // read part files in filename order: part-00000 holds the smallest
    // range (textFile's split order across files is not guaranteed)
    val lines = new java.io.File(out).listFiles()
      .filter(f => f.isFile && f.getName.startsWith("part-")).sortBy(_.getName)
      .flatMap(f => scala.io.Source.fromFile(f).getLines()).toSeq
    val keys = lines.map { l =>
      val o = repro.core.json.JsonParser.parse(l)
      (o.lookup("target").get.stringValue,
       o.lookup("country").get.stringValue,
       o.lookup("date").get.stringValue)
    }
    val ord = new Ordering[(String, String, String)] {
      def compare(a: (String, String, String), b: (String, String, String)): Int = {
        var c = a._1.compareTo(b._1)
        if (c == 0) c = b._2.compareTo(a._2)
        if (c == 0) c = b._3.compareTo(a._3)
        c
      }
    }
    assert(keys == keys.sorted(ord))
  }

  test("zorba-sim agrees with Rumble on all three queries (small input)") {
    val z = SingleThreadedEngines.zorbaSim(spark, Some(100000L))
    assert(z.runCount(RumbleQueries.filter(file)) == rumbleFilterCount)
    assert(z.runCount(RumbleQueries.group(file)) == rumbleGroupCount)
    assert(z.runCount(RumbleQueries.sort(file)) == rumbleFilterCount)
  }

  test("xidel-sim agrees with Rumble on all three queries (small input)") {
    val x = SingleThreadedEngines.xidelSim(spark, Some(100000L), file)
    assert(x.runCount(RumbleQueries.filter(file)) == rumbleFilterCount)
    assert(x.runCount(RumbleQueries.group(file)) == rumbleGroupCount)
    assert(x.runCount(RumbleQueries.sort(file)) == rumbleFilterCount)
  }

  test("zorba-sim streams filters but DNFs on group/sort past the heap cap") {
    val z = SingleThreadedEngines.zorbaSim(spark, Some(n / 2L))
    // filter streams: no materialization, any size works
    assert(z.runCount(RumbleQueries.filter(file)) == rumbleFilterCount)
    // group/sort materialize the tuple stream: DNF
    assertThrows[HeapModelExceeded](z.runCount(RumbleQueries.group(file)))
    assertThrows[HeapModelExceeded](z.runCount(RumbleQueries.sort(file)))
  }

  test("xidel-sim DNFs on every query past the heap cap (eager input)") {
    val x = SingleThreadedEngines.xidelSim(spark, Some(n / 2L), file)
    assertThrows[HeapModelExceeded](x.runCount(RumbleQueries.filter(file)))
    assertThrows[HeapModelExceeded](x.runCount(RumbleQueries.group(file)))
    assertThrows[HeapModelExceeded](x.runCount(RumbleQueries.sort(file)))
  }

  test("reddit filter baselines agree with Rumble") {
    val d = java.nio.file.Files.createTempDirectory("bl3").resolve("reddit").toString
    repro.datasets.RedditData.generate(spark, d, 20000, partitions = 4)
    val r = rumble.runCount(RumbleQueries.redditFilter(d, 1000))
    assert(RawSparkBaseline.redditFilter(spark, d, 1000) == r)
    assert(SparkSqlBaseline.redditFilter(spark, d, 1000) == r)
  }
}
