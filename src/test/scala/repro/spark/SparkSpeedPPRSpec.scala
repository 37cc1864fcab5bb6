package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Common, PPRResult, Stats, WalkPhase}
import repro.graph.{ExactPPR, GraphGen}

class SparkSpeedPPRSpec extends SparkSpec {
  private val alpha = 0.2

  test("run returns core WalkPhase.run's bits on powerPush's state") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 124)
    assert(g.deadEnds.nonEmpty)
    val edges = SparkGraph.toDataFrame(g, spark)
    val w = Common.walkCount(g.n, 0.5)
    val pushed = SparkPPR.powerPush(spark, edges, g.n, 0, g.m.toDouble / w, g.m, alpha, refineRMax = 1.0 / w)
    val core = PPRResult(collectCol(pushed, g.n, "pi"), collectCol(pushed, g.n, "r"), new Stats)
    assert(core.residue.count(_ > 0.0) > 1)
    WalkPhase.run(g, 0, core, w, alpha, seed = 11, index = null)
    val out = SparkSpeedPPR.run(spark, edges, g.n, g.m, 0, eps = 0.5, alpha = alpha, seed = 11)
    assert(collectCol(out, g.n, "pi").map(java.lang.Double.doubleToRawLongBits).toSeq ==
      core.pi.map(java.lang.Double.doubleToRawLongBits).toSeq)
  }

  test("distributed SpeedPPR sums to 1 and is close to exact") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 141)
    val exact = ExactPPR.solve(g, 0, alpha)
    val out = SparkSpeedPPR.run(spark, SparkGraph.toDataFrame(g, spark), g.n, g.m, 0,
                                eps = 0.5, alpha = alpha, seed = 3)
    val pi = new Array[Double](g.n)
    out.collect().foreach(r => pi(r.getLong(0).toInt) = r.getDouble(1))
    assert(math.abs(pi.sum - 1.0) < 1e-9)
    assert(Common.l1Diff(pi, exact) < 0.05, s"l1=${Common.l1Diff(pi, exact)}")
  }

  test("relative error criterion for high-PPR nodes at eps = 0.5") {
    val g = GraphGen.randomGraph(30, 4.0, seed = 142)
    val exact = ExactPPR.solve(g, 0, alpha)
    val out = SparkSpeedPPR.run(spark, SparkGraph.toDataFrame(g, spark), g.n, g.m, 0,
                                eps = 0.5, alpha = alpha, seed = 5)
    val pi = new Array[Double](g.n)
    out.collect().foreach(r => pi(r.getLong(0).toInt) = r.getDouble(1))
    (0 until g.n).filter(v => exact(v) >= 1.0 / g.n).foreach { v =>
      assert(math.abs(pi(v) - exact(v)) <= 0.5 * exact(v) + 1e-9,
        s"node $v: ${pi(v)} vs ${exact(v)}")
    }
  }

  test("handles dead ends") {
    val g = GraphGen.randomGraph(30, 3.0, seed = 143)
    assert(g.deadEnds.nonEmpty)
    val out = SparkSpeedPPR.run(spark, SparkGraph.toDataFrame(g, spark), g.n, g.m, 0,
                                eps = 0.5, alpha = alpha, seed = 7)
    val total = out.agg(sum(col("pi"))).head().getDouble(0)
    assert(math.abs(total - 1.0) < 1e-9)
  }
}
