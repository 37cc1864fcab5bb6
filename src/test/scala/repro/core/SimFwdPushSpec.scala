package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{Fig1, GraphGen}

class SimFwdPushSpec extends AnyFunSuite {
  private val alpha = 0.2

  test("Figure 3 running example, iteration 1") {
    val g = Fig1.graph
    val pi = new Array[Double](5)
    val r0 = Array(1.0, 0.0, 0.0, 0.0, 0.0)
    val r1 = SimFwdPush.step(g, 0, r0, pi, alpha, new Stats)
    assert(math.abs(pi(0) - 0.2) < 1e-12)
    assert(math.abs(r1(1) - 0.4) < 1e-12)
    assert(math.abs(r1(2) - 0.4) < 1e-12)
    assert(r1(0) == 0.0 && r1(3) == 0.0 && r1(4) == 0.0)
  }

  test("Figure 3 running example, iteration 2") {
    val g = Fig1.graph
    val pi = new Array[Double](5)
    val stats = new Stats
    var r = Array(1.0, 0.0, 0.0, 0.0, 0.0)
    r = SimFwdPush.step(g, 0, r, pi, alpha, stats)
    r = SimFwdPush.step(g, 0, r, pi, alpha, stats)
    // v2 pushes 0.8*0.4/4 = 0.08 to each of {v1,v3,v4,v5};
    // v3 pushes 0.8*0.4/2 = 0.16 to each of {v2,v4}.
    val expR = Seq(0.08, 0.16, 0.08, 0.24, 0.08)
    (0 until 5).foreach(v => assert(math.abs(r(v) - expR(v)) < 1e-12, s"r($v)"))
    // After iteration 2 every node has non-zero residue (S^(2) = all five).
    assert(r.forall(_ > 0.0))
  }

  test("Lemma 4.1: per-iteration equivalence with PowItr on Fig1") {
    checkEquivalence(Fig1.graph, 0, 30)
  }

  test("Lemma 4.1: per-iteration equivalence with PowItr on a random graph with dead ends") {
    val g = GraphGen.randomGraph(120, 4.0, seed = 51)
    assert(g.deadEnds.nonEmpty)
    checkEquivalence(g, 3, 40)
  }

  private def checkEquivalence(g: repro.graph.CSRGraph, s: Int, iters: Int): Unit = {
    // PowItr's gamma/pi sequence, computed independently.
    var gamma = Array.tabulate(g.n)(i => if (i == s) 1.0 else 0.0)
    val piPow = new Array[Double](g.n)
    // SimFwdPush's residue/reserve sequence.
    var r = gamma.clone()
    val piSim = new Array[Double](g.n)
    val stats = new Stats
    (0 until iters).foreach { j =>
      // one PowItr iteration (dense sweep)
      val next = new Array[Double](g.n)
      var v = 0
      while (v < g.n) {
        val gv = gamma(v)
        if (gv != 0.0) {
          piPow(v) += alpha * gv
          val d = g.outDegree(v)
          if (d == 0) next(s) += (1 - alpha) * gv
          else g.foreachOut(v)(u => next(u) += (1 - alpha) * gv / d)
        }
        v += 1
      }
      gamma = next
      // one SimFwdPush iteration
      r = SimFwdPush.step(g, s, r, piSim, alpha, stats)
      assert(Common.l1Diff(r, gamma) < 1e-13, s"residue mismatch at iteration $j")
      assert(Common.l1Diff(piSim, piPow) < 1e-13, s"reserve mismatch at iteration $j")
    }
  }

  test("SimFwdPush counts only active degrees, PowItr counts m per sweep") {
    val g = GraphGen.randomGraph(300, 3.0, seed = 53)
    val pow = PowItr.run(g, 0, 1e-6, alpha)
    val (pi, stats) = (new Array[Double](g.n), new Stats)
    var r = Array.tabulate(g.n)(v => if (v == 0) 1.0 else 0.0)
    (0 until pow.stats.iterations).foreach(_ => r = SimFwdPush.step(g, 0, r, pi, alpha, stats))
    assert(stats.edgePushes <= pow.stats.edgePushes)
  }

  test("mass conservation") {
    val g = GraphGen.randomGraph(100, 4.0, seed = 54)
    val pi = new Array[Double](g.n)
    var r = Array.tabulate(g.n)(v => if (v == 1) 1.0 else 0.0)
    (0 until 80).foreach { j =>
      r = SimFwdPush.step(g, 1, r, pi, alpha, new Stats)
      assert(math.abs(Common.sum(pi) + Common.sum(r) - 1.0) < 1e-10, s"iteration $j")
    }
  }
}
