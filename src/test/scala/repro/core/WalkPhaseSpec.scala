package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}

/** The walk phase keeps several walks in flight; these check the lane
  * bookkeeping where the number of walks crosses the lane count, and where
  * stored and live walks of one node mix.
  */
class WalkPhaseSpec extends AnyFunSuite {
  private val alpha = 0.2

  /** Run the walk phase on copies of (pi, r) and check that it issued
    * `walks` walks and moved all of Σr into the estimate.
    */
  private def checkMass(g: CSRGraph, pi: Array[Double], r: Array[Double], w: Long,
                        walks: Long, index: WalkIndex = null): Unit = {
    val in = PPRResult(pi.clone, r.clone, new Stats)
    val out = WalkPhase.run(g, 0, in, w, alpha, seed = 11L, index)
    assert(out.stats.pushOps == walks, s"W = $w")
    assert(out.residue.forall(_ == 0.0))
    assert(math.abs(out.l1Pi - (Common.sum(pi) + Common.sum(r))) <= 1e-12, s"W = $w")
  }

  test("mass is conserved for 1, 15, 16, 17 and many walks") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 111)
    assert(g.deadEnds.nonEmpty)
    // Residue 1 on one node: ⌈1·W⌉ = W walks, next to a non-zero estimate.
    val pi = new Array[Double](g.n)
    pi(1) = 0.25
    val r = new Array[Double](g.n)
    r(0) = 1.0
    Seq(1L, 15L, 16L, 17L, 1000L).foreach(w => checkMass(g, pi, r, w, walks = w))
    // Residue on every node: lanes are refilled across nodes.
    val spread = Array.fill(g.n)(1.0 / g.n)
    checkMass(g, new Array[Double](g.n), spread, 20L * g.n, walks = 20L * g.n)
  }

  test("mass is conserved when one node mixes stored and live walks") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 112)
    val index = WalkIndex.build(g, _ => 3, alpha, seed = 113)
    assert(index.endpoints.exists(_ < 0), "want dead-end markers among the stored walks")
    val r = Array.fill(g.n)(1.0 / g.n)
    // ⌈W/n⌉ = 10 walks per node: 3 read from the index, 7 walked live.
    checkMass(g, new Array[Double](g.n), r, 10L * g.n, walks = 10L * g.n, index)
  }

  test("endpoint law from e_s matches exact PPR on Fig1") {
    val g = Fig1.graph
    val exact = ExactPPR.solve(g, 0, alpha)
    val r = new Array[Double](g.n)
    r(0) = 1.0
    val w = 200000L
    val pi = WalkPhase.run(g, 0, PPRResult(new Array[Double](g.n), r, new Stats), w, alpha,
      seed = 123L, index = null).pi
    (0 until g.n).foreach { v =>
      assert(math.abs(pi(v) - exact(v)) < 0.01, s"node $v: ${pi(v)} vs exact ${exact(v)}")
    }
  }
}
