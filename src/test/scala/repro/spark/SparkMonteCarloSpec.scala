package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.Common
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}

class SparkMonteCarloSpec extends SparkSpec {
  private val alpha = 0.2

  test("adjacency table has a row per node with the right degree") {
    val g = Fig1.graph
    val adj = SparkMonteCarlo.adjacency(spark, CSRGraph.toDataFrame(g, spark), g.n)
    val rows = adj.orderBy("id").collect()
    assert(rows.length == g.n)
    assert(rows.map(_.getLong(1)).toSeq == (0 until g.n).map(g.outDegree(_).toLong))
    // neighbor multisets match
    rows.foreach { r =>
      val id = r.getLong(0).toInt
      assert(r.getSeq[Long](2).map(_.toInt).sorted == g.outNeighbors(id).toSeq.sorted)
    }
  }

  test("adjacency handles dead ends with an empty array") {
    val g = CSRGraph.fromEdges(3, Seq(0 -> 1))
    val adj = SparkMonteCarlo.adjacency(spark, CSRGraph.toDataFrame(g, spark), g.n)
    val dead = adj.where(col("id") === 1L).head()
    assert(dead.getLong(1) == 0L)
    assert(dead.getSeq[Long](2).isEmpty)
  }

  test("distributed Monte-Carlo approximates exact PPR on Fig1") {
    val g = Fig1.graph
    val exact = ExactPPR.solve(g, 0, alpha)
    // eps=0.5 at n=5 gives a few thousand walks — cheap but accurate.
    val out = SparkMonteCarlo.run(spark, CSRGraph.toDataFrame(g, spark), g.n, 0, 0.5, alpha, seed = 5)
    val pi = new Array[Double](g.n)
    out.collect().foreach(r => pi(r.getLong(0).toInt) = r.getDouble(1))
    assert(math.abs(pi.sum - 1.0) < 1e-9)
    (0 until g.n).foreach { v =>
      assert(math.abs(pi(v) - exact(v)) < 0.05, s"node $v: ${pi(v)} vs ${exact(v)}")
    }
  }

  test("walk weights are conserved through the walk engine") {
    val g = GraphGen.randomGraph(30, 3.0, seed = 131)
    val edges = CSRGraph.toDataFrame(g, spark)
    val adj = SparkMonteCarlo.adjacency(spark, edges, g.n)
    val starts = spark.range(500).select(
      (col("id") % g.n).as("start"), lit(0.002).as("weight"))
    val out = SparkMonteCarlo.walkEndpoints(spark, adj, starts, 0, alpha, seed = 7)
    val total = out.agg(sum(col("pi"))).head().getDouble(0)
    assert(math.abs(total - 1.0) < 1e-9)
  }

  test("walkPhase adds every residue to pi and lowers no entry") {
    val g = GraphGen.randomGraph(30, 3.0, seed = 143)
    val dead = g.deadEnds.head
    val edges = CSRGraph.toDataFrame(g, spark)
    // pi on every third node, residue on every fourth and on a dead end.
    val piIn = Array.tabulate(g.n)(v => if (v % 3 == 0) 0.01 else 0.0)
    val rIn = Array.tabulate(g.n)(v => if (v % 4 == 1 || v == dead) 0.03 else 0.0)
    val state = spark.createDataFrame((0 until g.n).map(v =>
      (v.toLong, g.outDegree(v).toLong, piIn(v), rIn(v)))).toDF("id", "deg", "pi", "r")
    val out = SparkMonteCarlo.walkPhase(spark, edges, g.n, 0, state, w = 200, alpha, seed = 17)
    val piOut = new Array[Double](g.n)
    out.collect().foreach(r => piOut(r.getLong(0).toInt) = r.getDouble(1))
    assert(math.abs(piOut.sum - (piIn.sum + rIn.sum)) < 1e-9)
    (0 until g.n).foreach(v => assert(piOut(v) >= piIn(v), s"node $v"))
  }

  test("dead-end walks are redirected to the query source") {
    val g = CSRGraph.fromEdges(3, Seq(0 -> 1)) // 2 unreachable
    val out = SparkMonteCarlo.run(spark, CSRGraph.toDataFrame(g, spark), g.n, 0, 0.5, alpha, seed = 9)
    val pi2 = out.where(col("id") === 2L).head().getDouble(1)
    assert(pi2 == 0.0)
  }

  test("one-node graph: the single walk stops at the source, pi(0) = 1") {
    val g = CSRGraph.fromEdges(1, Nil)
    val out = SparkMonteCarlo.run(spark, CSRGraph.toDataFrame(g, spark), g.n, 0, 0.5, alpha, seed = 9)
    assert(math.abs(out.head().getDouble(1) - 1.0) < 1e-9)
  }
}
