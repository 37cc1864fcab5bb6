package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}

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

  test("a source with over n/4 out-neighbours goes to the scan after one push") {
    val base = GraphGen.randomGraph(80, 3.0, seed = 67)
    val others = (0 until 80).filter(_ != 1)
    val g = CSRGraph.fromEdges(80,
      others.flatMap(v => base.outNeighbors(v).map(v -> _)) ++ others.map(1 -> _)) // 1 -> every other node
    val trace = new Trace
    val res = PowerPush.run(g, 1, 1e-9, alpha, trace = trace, traceEvery = 1L)
    assert(res.stats.iterations > 0)
    assert(trace.points.length == 2 + res.stats.iterations) // e_s, one queue push, the sweeps
    assert(Common.l1Diff(res.pi, ExactPPR.solve(g, 1, alpha)) <= 1e-9 + 1e-12)
  }

  test("a directed cycle never leaves the queue phase") {
    val g = CSRGraph.fromEdges(10, (0 until 10).map(v => v -> (v + 1) % 10))
    val res = PowerPush.run(g, 3, 1e-9, alpha)
    assert(res.stats.iterations == 0)
    assert(Common.l1Diff(res.pi, ExactPPR.solve(g, 3, alpha)) <= 1e-9 + 1e-12)
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
    // The queue phase alone: the FIFO drain at PowerPush's cap and λ.
    val queue = new Stats
    val (pi, r, inQueue, q) = (new Array[Double](g.n), new Array[Double](g.n), new Array[Boolean](g.n),
      new PushKernel.IntQueue(g.n))
    r(0) = 1.0; inQueue(0) = true; q.append(0)
    PushKernel.drain(g, 0, pi, r, q, inQueue, PushKernel.rMaxFor(lambda, g.m), alpha, queue,
      cap = math.max(1, g.n / 4), stopSum = lambda)
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
