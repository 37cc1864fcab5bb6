package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}
import repro.core.{Common, PowItr, PushKernel}
import repro.spark.SparkJobs.jobsStarted

class SparkPPRSpec extends SparkSpec {
  private val alpha = 0.2

  test("initState puts residue 1 at the source and 0 elsewhere") {
    val g = Fig1.graph
    val rows = SparkPPR.initState(spark, g.n, 0).orderBy("id").collect()
    assert(rows.length == g.n)
    val r = rows.map(_.getAs[Double]("r"))
    assert(r(0) == 1.0)
    assert(r.drop(1).forall(_ == 0.0))
  }

  private def bits(a: Array[Double]): Seq[Long] = a.map(java.lang.Double.doubleToRawLongBits).toSeq

  /** `body` under `spark.sql.shuffle.partitions` = k, restoring the setting. */
  private def atPartitions[A](k: Int)(body: => A): A = {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    spark.conf.set(key, k.toLong)
    try body finally spark.conf.set(key, saved)
  }

  private val partitionCounts = Seq(2, 3, 4)

  test("powItr returns core PowItr.run's bits on 2-4 partitions") {
    // s = 0 pushes along its out-edges. A dead-end source would not do: Spark
    // settles it in closed form, while SimFwdPush.step pushes it.
    val g = GraphGen.randomGraph(40, 3.0, seed = 124)
    assert(g.outDegree(0) > 0 && g.deadEnds.nonEmpty)
    val edges = SparkGraph.toDataFrame(g, spark)
    val local = PowItr.run(g, 0, 1e-6, alpha)
    for (k <- partitionCounts) withClue(s"$k partitions: ") {
      val (pi, r) = atPartitions(k) {
        val out = SparkPPR.powItr(spark, edges, g.n, 0, lambda = 1e-6, alpha = alpha)
        (collectCol(out, g.n, "pi"), collectCol(out, g.n, "r"))
      }
      assert(bits(pi) == bits(local.pi))
      assert(bits(r) == bits(local.residue))
    }
  }

  /** π's bits from `entry` at each of [[partitionCounts]]. */
  private def piBitsPerPartitionCount(n: Int)(entry: => DataFrame): Seq[Seq[Long]] =
    partitionCounts.map(k => atPartitions(k)(bits(collectCol(entry, n, "pi"))))

  test("powerPush gives the same bits at 2, 3 and 4 partitions") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 124)
    val edges = SparkGraph.toDataFrame(g, spark)
    val runs = piBitsPerPartitionCount(g.n)(
      SparkPPR.powerPush(spark, edges, g.n, 0, lambda = 1e-6, m = g.m, alpha = alpha))
    assert(runs.distinct.size == 1)
  }

  test("powerPush's refineRMax gives refine's bits after powerPush") {
    // SpeedPPR's thresholds at ε = 0.5: λ = m/W, then r_max = 1/W.
    val g = GraphGen.randomGraph(40, 3.0, seed = 124)
    val edges = SparkGraph.toDataFrame(g, spark)
    val w = Common.walkCount(g.n, 0.5)
    val (lambda, rMax) = (g.m.toDouble / w, 1.0 / w)
    for (k <- Seq(2, 4)) withClue(s"$k partitions: ") {
      atPartitions(k) {
        val pushed = SparkPPR.powerPush(spark, edges, g.n, 0, lambda, g.m, alpha)
        val r0 = collectCol(pushed, g.n, "r")
        assert((0 until g.n).exists(v => Common.isActive(r0(v), g.outDegree(v), rMax)),
          "nothing left to refine")
        val twoLoops = SparkPPR.refine(pushed, edges, 0, rMax, alpha)
        val oneLoop = SparkPPR.powerPush(spark, edges, g.n, 0, lambda, g.m, alpha, refineRMax = rMax)
        for (c <- Seq("pi", "r"))
          assert(bits(collectCol(oneLoop, g.n, c)) == bits(collectCol(twoLoops, g.n, c)), c)
      }
    }
  }

  test("SparkSpeedPPR.run: same bits at 2, 3 and 4 partitions") {
    val g = GraphGen.randomGraph(40, 3.0, seed = 124)
    val edges = SparkGraph.toDataFrame(g, spark)
    val runs = piBitsPerPartitionCount(g.n)(
      SparkSpeedPPR.run(spark, edges, g.n, g.m, 0, eps = 0.5, alpha = alpha, seed = 11))
    assert(runs.distinct.size == 1)
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
    val state = SparkPPR.initState(spark, n, 0)
    // Each entry takes (s, α, x), x being its λ, ε or r_max; 0.5 is valid for
    // all three. Then the invalid sources and x values of that entry.
    val badS = Seq(-1L, n)
    val entries: Seq[(String, (Long, Double, Double) => Any, Seq[Long], Seq[Double])] = Seq(
      ("powItr", (s, a, x) => SparkPPR.powItr(spark, edges, n, s, x, a), badS, Seq(0.0)),
      ("fwdPush", (s, a, x) => SparkPPR.fwdPush(spark, edges, n, s, x, a), badS, Seq(0.0)),
      ("powerPush", (s, a, x) => SparkPPR.powerPush(spark, edges, n, s, x, g.m, a), badS, Seq(0.0)),
      ("powerPush's refineRMax",
        (s, a, x) => SparkPPR.powerPush(spark, edges, n, s, 0.5, g.m, a, refineRMax = x), badS, Seq(0.0)),
      ("refine", (_, a, x) => SparkPPR.refine(state, edges, 0, x, a), Nil, Seq(0.0)),
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

  test("refine rejects a source outside the state's ids") {
    val g = CSRGraph.fromEdges(3, Seq(0 -> 1))
    val edges = SparkGraph.toDataFrame(g, spark)
    val e = intercept[IllegalArgumentException] {
      SparkPPR.refine(SparkPPR.initState(spark, g.n, 0), edges, 7, rMax = 1e-3, alpha)
    }
    assert(e.getMessage.contains("s = 7"))
  }

  test("dead-end source: every entry meets lambda in a few jobs and leaves nothing cached") {
    // A dead-end source keeps all of its mass: exact PPR is e_s, and one push
    // superstep settles it. On a 4-core local session each push entry
    // started 2 jobs here (one per (Σr, #active) pass: before and after the
    // superstep) and SparkSpeedPPR 3-4; a loop spinning to
    // the 500-superstep cap would start one job per superstep. The bound
    // leaves 10x headroom over the largest.
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
        "refine" -> (() => SparkPPR.refine(SparkPPR.initState(spark, n, 0), edges, 0, rMax, alpha)),
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
