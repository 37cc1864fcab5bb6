package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}
import repro.core.{Common, PowItr, PushKernel}
import repro.spark.SparkJobs.jobsStarted

class SparkPPRSpec extends SparkSpec {
  private val alpha = 0.2

  test("initState puts residue 1 at the source and degrees everywhere") {
    val g = Fig1.graph
    val edges = SparkGraph.toDataFrame(g, spark)
    val st = SparkPPR.initState(spark, edges, g.n, 0)
    val rows = st.orderBy("id").collect()
    assert(rows.length == g.n)
    assert(rows(0).getDouble(3) == 1.0)
    assert(rows.map(_.getLong(1)).toSeq == (0 until g.n).map(g.outDegree(_).toLong))
    assert(rows.drop(1).forall(_.getDouble(3) == 0.0))
  }

  test("one pushStep at rMax=0 equals one PowItr iteration (oracle vs local)") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 121, allowDeadEnds = false)
    val edges = SparkGraph.toDataFrame(g, spark)
    val st = SparkPPR.initState(spark, edges, g.n, 0)
    val next = SparkPPR.pushStep(st, edges, 0, alpha, 0.0)
    val rSpark = collectCol(next, g.n, "r")
    // local reference
    val stats = new repro.core.Stats
    val r0 = Array.tabulate(g.n)(i => if (i == 0) 1.0 else 0.0)
    val piLocal = new Array[Double](g.n)
    val rLocal = repro.core.SimFwdPush.step(g, 0, r0, piLocal, alpha, stats)
    assert(Common.l1Diff(rSpark, rLocal) < 1e-12)
    val piSpark = collectCol(next, g.n, "pi")
    assert(Common.l1Diff(piSpark, piLocal) < 1e-12)
  }

  test("distributed PowItr matches the local exact solution") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 124)
    val edges = SparkGraph.toDataFrame(g, spark)
    val exact = ExactPPR.solve(g, 0, alpha)
    val out = SparkPPR.powItr(spark, edges, g.n, 0, lambda = 1e-5, alpha = alpha)
    val pi = collectCol(out, g.n, "pi")
    assert(Common.l1Diff(pi, exact) <= 1e-5 + 1e-10)
  }

  test("distributed frontier FwdPush terminates with no active node") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 125)
    val edges = SparkGraph.toDataFrame(g, spark)
    val rMax = 1e-4
    val out = SparkPPR.fwdPush(spark, edges, g.n, 0, rMax, alpha)
    val r = collectCol(out, g.n, "r")
    (0 until g.n).foreach(v => assert(r(v) <= g.outDegree(v) * rMax + 1e-12, s"node $v"))
    val pi = collectCol(out, g.n, "pi")
    val exact = ExactPPR.solve(g, 0, alpha)
    assert(Common.l1Diff(pi, exact) <= g.m * rMax + 1e-10)
  }

  test("distributed PowerPush reaches lambda and matches exact") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 126)
    val edges = SparkGraph.toDataFrame(g, spark)
    val exact = ExactPPR.solve(g, 0, alpha)
    val out = SparkPPR.powerPush(spark, edges, g.n, 0, lambda = 1e-5, m = g.m, alpha = alpha)
    val pi = collectCol(out, g.n, "pi")
    assert(Common.l1Diff(pi, exact) <= 1e-5 + 1e-10)
  }

  test("refine enforces the per-node cap on an existing state") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 127)
    val edges = SparkGraph.toDataFrame(g, spark)
    val pushed = SparkPPR.powItr(spark, edges, g.n, 0, lambda = 1e-3, alpha = alpha)
    val rMax = 1e-5
    val refined = SparkPPR.refine(pushed, edges, 0, rMax, alpha)
    val r = collectCol(refined, g.n, "r")
    (0 until g.n).foreach(v => assert(r(v) <= g.outDegree(v) * rMax + 1e-12, s"node $v"))
  }

  test("mass conservation in the dataflow version") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 128)
    val edges = SparkGraph.toDataFrame(g, spark)
    val out = SparkPPR.powItr(spark, edges, g.n, 0, lambda = 1e-4, alpha = alpha)
    val row = out.agg(sum(col("pi")), sum(col("r"))).head()
    assert(math.abs(row.getDouble(0) + row.getDouble(1) - 1.0) < 1e-9)
  }

  test("dataflow PowItr equals local PowItr after full convergence") {
    val g = GraphGen.randomGraph(35, 3.0, seed = 129)
    val edges = SparkGraph.toDataFrame(g, spark)
    val local = PowItr.run(g, 2, 1e-6, alpha)
    val out = SparkPPR.powItr(spark, edges, g.n, 2, lambda = 1e-6, alpha = alpha)
    val pi = collectCol(out, g.n, "pi")
    assert(Common.l1Diff(pi, local.pi) < 1e-12)
  }

  test("invalid arguments throw IllegalArgumentException before any Spark job") {
    val g = Fig1.graph
    val n = g.n.toLong
    val edges = SparkGraph.toDataFrame(g, spark)
    val state = SparkPPR.initState(spark, edges, n, 0)
    // Each entry takes (s, α, x), x being its λ, ε or r_max; 0.5 is valid for
    // all three. Then the invalid sources and x values of that entry.
    val badS = Seq(-1L, n)
    val entries: Seq[(String, (Long, Double, Double) => Any, Seq[Long], Seq[Double])] = Seq(
      ("powItr", (s, a, x) => SparkPPR.powItr(spark, edges, n, s, x, a), badS, Seq(0.0)),
      ("fwdPush", (s, a, x) => SparkPPR.fwdPush(spark, edges, n, s, x, a), badS, Seq(0.0)),
      ("powerPush", (s, a, x) => SparkPPR.powerPush(spark, edges, n, s, x, g.m, a), badS, Seq(0.0)),
      ("refine", (_, a, x) => SparkPPR.refine(state, edges, 0, x, a), Nil, Seq(0.0)),
      ("SparkMonteCarlo.run", (s, a, x) => SparkMonteCarlo.run(spark, edges, n, s, x, a),
        badS, Seq(0.0, 1.0)),
      ("SparkSpeedPPR.run", (s, a, x) => SparkSpeedPPR.run(spark, edges, n, g.m, s, x, a),
        badS, Seq(0.0, 1.0)),
    )
    val (_, jobs) = jobsStarted(spark) {
      for ((name, entry, sources, xs) <- entries) {
        val bad = sources.map((_, alpha, 0.5)) ++ Seq(0.0, 1.0).map((0L, _, 0.5)) ++
          xs.map((0L, alpha, _))
        for ((s, a, x) <- bad) withClue(s"$name(s = $s, alpha = $a, x = $x): ") {
          intercept[IllegalArgumentException](entry(s, a, x))
        }
      }
    }
    assert(jobs == 0, "an entry launched a Spark job before failing")
  }

  test("dead-end source: every entry meets lambda in a few jobs and leaves nothing cached") {
    // A dead-end source keeps all of its mass: exact PPR is e_s, and one push
    // superstep settles it. On 2- and 4-core local sessions each push entry
    // started 5-8 jobs here (adaptive execution submits every shuffle map
    // stage as a job), SparkMonteCarlo 1-3 and SparkSpeedPPR 8-11; spinning
    // to the 500-superstep cap started 2 500 (powerPush) and 5 000
    // (SparkSpeedPPR) on n = 1. The bound leaves ~3.5x headroom over the
    // largest.
    val maxJobs = 40
    val lambda = 1e-8
    val cache = spark.asInstanceOf[org.apache.spark.sql.classic.SparkSession].sharedState.cacheManager
    // Cache entries are not counted publicly, so start from an empty cache.
    spark.catalog.clearCache()
    for (g <- Seq(CSRGraph.fromEdges(1, Nil), CSRGraph.fromEdges(3, Seq(1 -> 0, 1 -> 2)))) {
      val n = g.n.toLong
      val edges = SparkGraph.toDataFrame(g, spark)
      val exact = ExactPPR.solve(g, 0, alpha)
      val rMax = PushKernel.rMaxFor(lambda, g.m)
      val entries: Seq[(String, () => DataFrame)] = Seq(
        "powItr" -> (() => SparkPPR.powItr(spark, edges, n, 0, lambda, alpha)),
        "fwdPush" -> (() => SparkPPR.fwdPush(spark, edges, n, 0, rMax, alpha)),
        "powerPush" -> (() => SparkPPR.powerPush(spark, edges, n, 0, lambda, g.m, alpha)),
        "refine" -> (() => SparkPPR.refine(SparkPPR.initState(spark, edges, n, 0), edges, 0, rMax, alpha)),
        "SparkMonteCarlo.run" -> (() => SparkMonteCarlo.run(spark, edges, n, 0, 0.5, alpha)),
        "SparkSpeedPPR.run" -> (() => SparkSpeedPPR.run(spark, edges, n, g.m, 0, 0.5, alpha)),
      )
      for ((name, entry) <- entries) withClue(s"$name on n = ${g.n}, m = ${g.m}: ") {
        val (out, jobs) = jobsStarted(spark)(entry())
        assert(jobs < maxJobs)
        val pi = collectCol(out, g.n, "pi")
        assert(Common.l1Diff(pi, exact) <= lambda)
        assert(math.abs(pi.sum - 1.0) <= 1e-9)
        assert(cache.isEmpty)
      }
    }
  }
}
