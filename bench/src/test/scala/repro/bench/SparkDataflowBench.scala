package repro.bench

import repro.SparkSpec
import repro.core.Common
import repro.harness.Harness
import repro.spark.{SparkGraph, SparkPPR}

/** Our distributed-dataflow addendum (DESIGN.md §5): run the Spark
  * versions on one stand-in (the first of `Harness.bundles`, so
  * REPRO_BENCH_DATASETS picks it) and compare both wall time and result
  * agreement against the local implementations.
  *
  * λ is relaxed to 1e-4 here: each superstep is one Spark job with one
  * message shuffle, so the superstep count (log(1/λ)/log(1/(1−α))) is the
  * cost driver; the convergence *shape* is identical to the local versions
  * by Lemma 4.1.
  */
class SparkDataflowBench extends SparkSpec {

  test("Spark dataflow: PowItr / FwdPush / PowerPush on small stand-ins") {
    val lambda = 1e-4
    val b = Harness.bundles.head
    val g = b.g
    val s = b.sources.head
    val edges = SparkGraph.toDataFrame(g, spark).cache()
    edges.count()
    val local = repro.core.PowerPush.run(g, s, 1e-10, Harness.Alpha).pi
    def l1(df: org.apache.spark.sql.DataFrame): Double = {
      val pi = new Array[Double](g.n)
      df.select("id", "pi").collect().foreach(r => pi(r.getLong(0).toInt) = r.getDouble(1))
      Common.l1Diff(pi, local)
    }
    val (dfPow, tPow) = Harness.timeSec(
      SparkPPR.powItr(spark, edges, g.n, s, lambda, Harness.Alpha))
    val (dfPush, tPush) = Harness.timeSec(
      SparkPPR.fwdPush(spark, edges, g.n, s, lambda / g.m, Harness.Alpha))
    val (dfPP, tPP) = Harness.timeSec(
      SparkPPR.powerPush(spark, edges, g.n, s, lambda, g.m, Harness.Alpha))
    val rows = Seq(
      Seq(b.ds.name, "SparkPowItr", Harness.fmt(tPow), Harness.fmt(l1(dfPow))),
      Seq(b.ds.name, "SparkFwdPush", Harness.fmt(tPush), Harness.fmt(l1(dfPush))),
      Seq(b.ds.name, "SparkPowerPush", Harness.fmt(tPP), Harness.fmt(l1(dfPP))),
    )
    // dataflow results must satisfy the same error guarantee
    assert(l1(dfPow) <= lambda + 1e-9)
    assert(l1(dfPP) <= lambda + 1e-9)
    edges.unpersist()
    println(Harness.renderTable(
      "Spark dataflow (ours): wall time (s) and l1 gap to local ground truth, lambda = 1e-4",
      Seq("dataset", "engine", "seconds", "l1-vs-local"), rows))
  }
}
