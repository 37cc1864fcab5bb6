package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Common, MonteCarlo, PPRResult, Stats, WalkPhase}
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}
import repro.spark.SparkJobs.jobsStarted

class SparkMonteCarloSpec extends SparkSpec {
  private val alpha = 0.2

  private def assertSameBits(got: Array[Double], want: Array[Double]): Unit =
    assert(got.map(java.lang.Double.doubleToRawLongBits).toSeq ==
      want.map(java.lang.Double.doubleToRawLongBits).toSeq)

  test("run returns core MonteCarlo.run's bits, dead ends included") {
    val g40 = GraphGen.randomGraph(40, 3.0, seed = 124)
    assert(g40.deadEnds.nonEmpty)
    for (g <- Seq(Fig1.graph, g40)) withClue(s"n = ${g.n}: ") {
      val out = SparkMonteCarlo.run(spark, SparkGraph.toDataFrame(g, spark), g.n, 0, 0.3, alpha, seed = 11)
      assertSameBits(collectCol(out, g.n, "pi"), MonteCarlo.run(g, 0, 0.3, alpha, seed = 11).pi)
    }
  }

  test("walkPhase on a refined state returns core WalkPhase.run's bits") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 124)
    val edges = SparkGraph.toDataFrame(g, spark)
    val w = Common.walkCount(g.n, 0.5)
    val refined = SparkPPR.refine(SparkPPR.initState(spark, g.n, 0), edges, 0, rMax = 0.05, alpha)
    val core = PPRResult(collectCol(refined, g.n, "pi"), collectCol(refined, g.n, "r"), new Stats)
    assert(core.residue.count(_ > 0.0) > 1)
    WalkPhase.run(g, 0, core, w, alpha, seed = 11, index = null)
    val out = SparkMonteCarlo.walkPhase(spark, edges, g.n, 0, refined, w, alpha, seed = 11)
    assertSameBits(collectCol(out, g.n, "pi"), core.pi)
  }

  test("distributed Monte-Carlo approximates exact PPR on Fig1") {
    val g = Fig1.graph
    val exact = ExactPPR.solve(g, 0, alpha)
    // eps = 0.1 at n = 5 gives W = 3 326 walks, so sigma at node 0
    // (pi = 0.327) is ~0.008 and the 0.05 bound is ~6 sigma.
    val out = SparkMonteCarlo.run(spark, SparkGraph.toDataFrame(g, spark), g.n, 0, 0.1, alpha, seed = 5)
    val pi = new Array[Double](g.n)
    out.collect().foreach(r => pi(r.getLong(0).toInt) = r.getDouble(1))
    assert(math.abs(pi.sum - 1.0) < 1e-9)
    (0 until g.n).foreach { v =>
      assert(math.abs(pi(v) - exact(v)) < 0.05, s"node $v: ${pi(v)} vs ${exact(v)}")
    }
  }

  test("long walks at alpha = 0.05 take a few jobs and are never cut short") {
    // eps = 0.1 gives W = 3 326 walks from the source, each of 19 steps on
    // average; the longest of them run for well over 100 steps.
    val g = Fig1.graph
    val a = 0.05
    val exact = ExactPPR.solve(g, 0, a)
    val (pi, jobs) = jobsStarted(spark) {
      val out = SparkMonteCarlo.run(spark, SparkGraph.toDataFrame(g, spark), g.n, 0, 0.1, a, seed = 3)
      val pi = new Array[Double](g.n)
      out.collect().foreach(r => pi(r.getLong(0).toInt) = r.getDouble(1))
      pi
    }
    assert(jobs < 40)
    assert(math.abs(pi.sum - 1.0) < 1e-9)
    (0 until g.n).foreach { v =>
      assert(math.abs(pi(v) - exact(v)) < 0.05, s"node $v: ${pi(v)} vs ${exact(v)}")
    }
  }

  test("walkPhase adds every residue to pi and lowers no entry") {
    val g = GraphGen.randomGraph(30, 3.0, seed = 143)
    val dead = g.deadEnds.head
    val edges = SparkGraph.toDataFrame(g, spark)
    // pi on every third node, residue on every fourth and on a dead end.
    val piIn = Array.tabulate(g.n)(v => if (v % 3 == 0) 0.01 else 0.0)
    val rIn = Array.tabulate(g.n)(v => if (v % 4 == 1 || v == dead) 0.03 else 0.0)
    val state = spark.createDataFrame((0 until g.n).map(v =>
      (v.toLong, piIn(v), rIn(v)))).toDF("id", "pi", "r")
    val out = SparkMonteCarlo.walkPhase(spark, edges, g.n, 0, state, w = 200, alpha, seed = 17)
    val piOut = new Array[Double](g.n)
    out.collect().foreach(r => piOut(r.getLong(0).toInt) = r.getDouble(1))
    assert(math.abs(piOut.sum - (piIn.sum + rIn.sum)) < 1e-9)
    (0 until g.n).foreach(v => assert(piOut(v) >= piIn(v), s"node $v"))
  }

  test("dead-end walks are redirected to the query source") {
    val g = CSRGraph.fromEdges(3, Seq(0 -> 1)) // 2 unreachable
    val out = SparkMonteCarlo.run(spark, SparkGraph.toDataFrame(g, spark), g.n, 0, 0.5, alpha, seed = 9)
    val pi2 = out.where(col("id") === 2L).head().getDouble(1)
    assert(pi2 == 0.0)
  }

  test("one-node graph: the single walk stops at the source, pi(0) = 1") {
    val g = CSRGraph.fromEdges(1, Nil)
    val out = SparkMonteCarlo.run(spark, SparkGraph.toDataFrame(g, spark), g.n, 0, 0.5, alpha, seed = 9)
    assert(math.abs(out.head().getDouble(1) - 1.0) < 1e-9)
  }
}
