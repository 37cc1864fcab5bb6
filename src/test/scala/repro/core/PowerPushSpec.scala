package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ExactPPR, Fig1, GraphGen}

class PowerPushSpec extends AnyFunSuite {
  private val alpha = 0.2

  test("reaches the lambda guarantee on Fig1") {
    val res = PowerPush.run(Fig1.graph, 0, 1e-8, alpha)
    assert(res.l1Residue <= 1e-8)
  }

  test("matches exact within lambda on a random graph") {
    val g = GraphGen.randomGraph(100, 4.0, seed = 61)
    val exact = ExactPPR.solve(g, 5, alpha)
    val res = PowerPush.run(g, 5, 1e-9, alpha)
    assert(Common.l1Diff(res.pi, exact) <= 1e-9 + 1e-12)
  }

  test("agrees with PowItr to within the sum of both error budgets") {
    val g = GraphGen.scaleFree(1000, 6.0, seed = 62)
    val a = PowerPush.run(g, 0, 1e-10, alpha)
    val b = PowItr.run(g, 0, 1e-10, alpha)
    assert(Common.l1Diff(a.pi, b.pi) <= 2e-10)
  }

  test("mass conservation") {
    val g = GraphGen.scaleFree(800, 5.0, seed = 63)
    val res = PowerPush.run(g, 2, 1e-8, alpha)
    assert(math.abs(res.l1Pi + res.l1Residue - 1.0) < 1e-9)
  }

  test("handles dead ends like the exact solver") {
    val g = GraphGen.randomGraph(90, 3.0, seed = 64)
    assert(g.deadEnds.nonEmpty)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = PowerPush.run(g, 0, 1e-10, alpha)
    assert(Common.l1Diff(res.pi, exact) <= 1e-9)
  }

  test("refinement enforces the per-node residue cap (Lemma 4.5)") {
    val g = GraphGen.scaleFree(500, 5.0, seed = 65)
    val rMax = 1e-6
    val res = PowerPush.run(g, 0, lambda = g.m * rMax, alpha, refineRMax = rMax)
    (0 until g.n).foreach { v =>
      assert(res.residue(v) <= g.outDegree(v) * rMax + 1e-15, s"node $v above cap")
    }
  }

  test("uses fewer or comparable edge pushes than PowItr") {
    val g = GraphGen.scaleFree(2000, 8.0, seed = 66)
    val pp = PowerPush.run(g, 0, 1e-8, alpha)
    val pi = PowItr.run(g, 0, 1e-8, alpha)
    assert(pp.stats.edgePushes <= pi.stats.edgePushes,
      s"PowerPush ${pp.stats.edgePushes} vs PowItr ${pi.stats.edgePushes}")
  }

  test("scan threshold 0 forces the pure scan path, result unchanged") {
    val g = GraphGen.randomGraph(80, 3.0, seed = 67)
    val exact = ExactPPR.solve(g, 1, alpha)
    val res = PowerPush.run(g, 1, 1e-9, alpha, scanThresholdFrac = 0.0)
    assert(Common.l1Diff(res.pi, exact) <= 1e-9 + 1e-12)
  }

  test("huge scan threshold forces the pure queue path, result unchanged") {
    val g = GraphGen.randomGraph(80, 3.0, seed = 67)
    val exact = ExactPPR.solve(g, 1, alpha)
    val res = PowerPush.run(g, 1, 1e-9, alpha, scanThresholdFrac = 10.0)
    assert(Common.l1Diff(res.pi, exact) <= 1e-9 + 1e-12)
  }

  test("epochNum = 1 (no dynamic threshold) still correct") {
    val g = GraphGen.randomGraph(80, 3.0, seed = 68)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = PowerPush.run(g, 0, 1e-9, alpha, epochNum = 1)
    assert(Common.l1Diff(res.pi, exact) <= 1e-9 + 1e-12)
  }

  test("very high precision (lambda = 1e-14) converges and matches exact") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 69)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = PowerPush.run(g, 0, 1e-14, alpha)
    assert(Common.l1Diff(res.pi, exact) <= 1e-12)
  }

  private def bits(a: Array[Double]) = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("traceEvery = 1 records one point per queue-phase push, per sweep and after refinement") {
    val g = GraphGen.scaleFree(500, 5.0, seed = 71)
    val lambda = 1e-8
    // epochNum = 0 skips the scan phase, leaving the queue phase's counts.
    val queue = PowerPush.run(g, 0, lambda, alpha, epochNum = 0).stats
    Seq(Double.NaN, 1e-9).foreach { refine =>
      val trace = new Trace
      val st = PowerPush.run(g, 0, lambda, alpha, refineRMax = refine, trace = trace, traceEvery = 1L).stats
      assert(queue.pushOps > 0 && st.iterations > 0)
      val refinePoint = if (refine.isNaN) 0 else 1
      assert(trace.points.length == 1 + queue.pushOps + st.iterations + refinePoint)
      assert(trace.points(queue.pushOps.toInt)._1 == queue.edgePushes)
    }
  }

  test("refineRMax is bit-identical to run followed by refineToRMax") {
    val g = GraphGen.scaleFree(500, 5.0, seed = 72)
    val rMax = 1e-6
    val full = PowerPush.run(g, 3, g.m * rMax, alpha, refineRMax = rMax)
    val split = PowerPush.run(g, 3, g.m * rMax, alpha)
    val unrefinedOps = split.stats.pushOps
    PowerPush.refineToRMax(g, 3, split.pi, split.residue, rMax, alpha, split.stats)
    assert(split.stats.pushOps > unrefinedOps, "refinement pushed nothing")
    assert(bits(full.pi) == bits(split.pi))
    assert(bits(full.residue) == bits(split.residue))
    assert((full.stats.edgePushes, full.stats.pushOps, full.stats.iterations) ==
      (split.stats.edgePushes, split.stats.pushOps, split.stats.iterations))
  }

  test("trace records monotonically non-increasing residue sums") {
    val g = GraphGen.scaleFree(500, 5.0, seed = 70)
    val trace = new Trace
    PowerPush.run(g, 0, 1e-8, alpha, trace = trace, traceEvery = g.m.toLong)
    val sums = trace.points.map(_._2)
    assert(sums.zip(sums.tail).forall { case (a, b) => b <= a + 1e-12 })
  }
}
