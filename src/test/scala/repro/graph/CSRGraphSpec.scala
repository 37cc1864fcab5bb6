package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import repro.spark.SparkGraph

/** A five-node example graph consistent with the paper's Figure-2/Figure-3
  * running examples (v1..v5 → ids 0..4): v1→{v2,v3}, v2→{v1,v3,v4,v5},
  * v3→{v2,v4}; the examples pin d(v4) = 3 and d(v5) = 2 (v4 must be inactive
  * with residue 0.16 and stay inactive at 0.272 under r_max = 0.099).
  */
object Fig1 {
  val edges: Seq[(Int, Int)] = Seq(
    0 -> 1, 0 -> 2,
    1 -> 0, 1 -> 2, 1 -> 3, 1 -> 4,
    2 -> 1, 2 -> 3,
    3 -> 0, 3 -> 1, 3 -> 4,
    4 -> 0, 4 -> 3,
  )
  def graph: CSRGraph = CSRGraph.fromEdges(5, edges)
}

class CSRGraphSpec extends AnyFunSuite {

  test("node and edge counts") {
    val g = Fig1.graph
    assert(g.n == 5)
    assert(g.m == 13)
  }

  test("out-degrees match the running examples") {
    val g = Fig1.graph
    assert(g.outDegree(0) == 2)
    assert(g.outDegree(1) == 4)
    assert(g.outDegree(2) == 2)
    assert(g.outDegree(3) == 3)
    assert(g.outDegree(4) == 2)
  }

  test("adjacency lists are id-sorted") {
    val g = Fig1.graph
    assert(g.outNeighbors(1).toSeq == Seq(0, 2, 3, 4))
    assert(g.outNeighbors(0).toSeq == Seq(1, 2))
  }

  test("foreachOut visits each out-edge exactly once") {
    val g = Fig1.graph
    var seen = List.empty[Int]
    g.foreachOut(2)(u => seen = u :: seen)
    assert(seen.sorted == List(1, 3))
  }

  test("dead ends are detected") {
    val g = CSRGraph.fromEdges(4, Seq(0 -> 1, 1 -> 2, 3 -> 0))
    assert(g.deadEnds.toSeq == Seq(2))
    assert(g.outDegree(2) == 0)
  }

  test("no dead ends in Fig1") {
    assert(Fig1.graph.deadEnds.isEmpty)
  }

  test("sum of out-degrees equals m") {
    val g = GraphGen.randomGraph(200, 4.0, seed = 11)
    assert((0 until g.n).map(g.outDegree).sum == g.m)
  }

  test("avgDegree") {
    val g = Fig1.graph
    assert(math.abs(g.avgDegree - 2.6) < 1e-12)
  }

  test("offsets are monotone and bracket the edge array") {
    val g = GraphGen.randomGraph(100, 3.0, seed = 5)
    assert(g.offset(0) == 0)
    assert(g.offset(g.n) == g.m)
    assert(g.offset.sliding(2).forall(p => p(0) <= p(1)))
  }

  test("edge targets are in range") {
    val g = GraphGen.randomGraph(100, 3.0, seed = 6)
    assert(g.edges.forall(u => u >= 0 && u < g.n))
  }

  test("fromEdges rejects out-of-range ids") {
    intercept[IllegalArgumentException] {
      CSRGraph.fromEdges(3, Seq(0 -> 3))
    }
  }

  test("dataframe round trip preserves the graph") {
    val spark = repro.SparkSpec.shared
    val g = GraphGen.randomGraph(50, 3.0, seed = 8)
    val df = SparkGraph.toDataFrame(g, spark)
    val g2 = SparkGraph.fromDataFrame(df, g.n)
    assert(g2.n == g.n && g2.m == g.m)
    assert((0 until g.n).forall(v => g.outNeighbors(v).toSeq == g2.outNeighbors(v).toSeq))
  }
}
