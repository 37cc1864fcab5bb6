package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.CSRGraph

/** Conversions between a local CSR graph and a Spark (src, dst) edge
  * DataFrame. They live here, not in `repro.graph`, so that the graph and
  * the core solvers load without Spark or scala-reflect on the classpath.
  */
object SparkGraph {

  /** Collect a (src, dst) edge DataFrame into a local CSR graph.
    * Intended for driver-side algorithms on bench-scale graphs.
    */
  def fromDataFrame(edges: DataFrame, n: Int): CSRGraph = {
    val rows = edges
      .selectExpr("cast(src as int) src", "cast(dst as int) dst")
      .collect()
    val buf = new CSRGraph.EdgeBuffer(rows.length)
    rows.foreach(r => buf.add(r.getInt(0), r.getInt(1)))
    buf.toCSR(n)
  }

  /** Expose a CSR graph as a Spark (src, dst) edge DataFrame. */
  def toDataFrame(g: CSRGraph, spark: SparkSession): DataFrame = {
    import spark.implicits._
    val buf = new scala.collection.mutable.ArrayBuffer[(Int, Int)](g.m)
    var v = 0
    while (v < g.n) { g.foreachOut(v)(u => buf += ((v, u))); v += 1 }
    buf.toSeq.toDF("src", "dst")
  }
}
