package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.scalatest.funsuite.AnyFunSuite

/** Base for every Spark suite: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM. The Tier-1 command (ROADMAP.md) sets it to half of
  * MemTotal, clamped to 2–8 GiB; when it is unset, build.sbt falls back to
  * 48g. Shuffles get one partition per core. The test graphs have
  * 30–40 nodes, so a push superstep, one Spark job of two stages, costs the
  * scheduling of its tasks (one per partition and stage), not its data.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared

  /** Column `colName` of an (id, …) DataFrame over nodes 0 until n, by id. */
  protected def collectCol(df: DataFrame, n: Int, colName: String): Array[Double] = {
    val out = new Array[Double](n)
    df.select(col("id"), col(colName)).collect().foreach(r => out(r.getLong(0).toInt) = r.getDouble(1))
    out
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .getOrCreate()
    s.conf.set("spark.sql.shuffle.partitions", s.sparkContext.defaultParallelism.toLong)
    s.sparkContext.setLogLevel("WARN")
    // One line in test output that records the heap setting, master and
    // parallelism the run used.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
