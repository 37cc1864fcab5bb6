package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}

class FwdPushSpec extends AnyFunSuite {
  private val alpha = 0.2

  test("first push matches Figure 2: pi(v1)=0.2, r(v2)=r(v3)=0.4") {
    // With r_max = 0.45 only v1 is ever active, so exactly one push happens.
    val res = FwdPush.run(Fig1.graph, 0, rMax = 0.45, alpha)
    assert(res.stats.pushOps == 1)
    assert(math.abs(res.pi(0) - 0.2) < 1e-12)
    assert(math.abs(res.residue(1) - 0.4) < 1e-12)
    assert(math.abs(res.residue(2) - 0.4) < 1e-12)
  }

  test("FIFO execution with r_max = 0.099 (hand-derived trace)") {
    // FIFO pops v2 before v3 (unlike the figure's arbitrary pick of v3):
    // push v1 → push v2 → push v3, then no node is active.
    val res = FwdPush.run(Fig1.graph, 0, rMax = 0.099, alpha)
    assert(res.stats.pushOps == 3)
    val expPi = Seq(0.2, 0.08, 0.096, 0.0, 0.0)
    val expR  = Seq(0.08, 0.192, 0.0, 0.272, 0.08)
    (0 until 5).foreach { v =>
      assert(math.abs(res.pi(v) - expPi(v)) < 1e-12, s"pi($v)")
      assert(math.abs(res.residue(v) - expR(v)) < 1e-12, s"r($v)")
    }
  }

  test("termination guarantee: no node active w.r.t. r_max") {
    val g = GraphGen.randomGraph(200, 4.0, seed = 41)
    val rMax = 1e-4
    val res = FwdPush.run(g, 3, rMax, alpha)
    (0 until g.n).foreach { v =>
      assert(res.residue(v) <= g.outDegree(v) * rMax + 1e-15, s"node $v still active")
    }
  }

  test("l1 error bound of Eq. (7): ||pi - exact||_1 <= m * r_max") {
    val g = GraphGen.randomGraph(80, 3.0, seed = 42)
    val exact = ExactPPR.solve(g, 1, alpha)
    val rMax = 1e-5
    val res = FwdPush.run(g, 1, rMax, alpha)
    assert(Common.l1Diff(res.pi, exact) <= g.m * rMax + 1e-12)
  }

  test("mass conservation throughout") {
    val g = GraphGen.randomGraph(150, 4.0, seed = 43)
    val res = FwdPush.runLambda(g, 0, 1e-7, alpha)
    assert(math.abs(res.l1Pi + res.l1Residue - 1.0) < 1e-10)
  }

  test("high precision run matches exact within lambda") {
    val g = GraphGen.randomGraph(80, 3.0, seed = 44)
    val exact = ExactPPR.solve(g, 9, alpha)
    val res = FwdPush.runLambda(g, 9, 1e-9, alpha)
    assert(Common.l1Diff(res.pi, exact) <= 1e-9 + 1e-12)
  }

  test("pi underestimates exact coordinate-wise") {
    val g = GraphGen.randomGraph(60, 3.0, seed = 45)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = FwdPush.runLambda(g, 0, 1e-4, alpha)
    assert((0 until g.n).forall(v => res.pi(v) <= exact(v) + 1e-12))
  }

  test("dead-end residue is redirected to the source") {
    val g = CSRGraph.fromEdges(3, Seq(0 -> 1)) // 1 and 2 dead ends, 2 unreachable
    val res = FwdPush.runLambda(g, 0, 1e-10, alpha)
    val exact = ExactPPR.solve(g, 0, alpha)
    assert(Common.l1Diff(res.pi, exact) <= 1e-9)
    assert(res.pi(2) == 0.0)
  }

  test("Theorem 4.3 shape: cost grows like m*log(1/lambda), not m/lambda") {
    val g = GraphGen.scaleFree(2000, 8.0, seed = 46)
    val pushes = Seq(1e-4, 1e-6, 1e-8).map { lambda =>
      FwdPush.runLambda(g, 0, lambda, alpha).stats.edgePushes.toDouble
    }
    // Under the O(m/λ) folklore bound the cost would multiply by ~100 per
    // step; under the paper's O(m log 1/λ) it grows roughly additively.
    val ratio1 = pushes(1) / pushes(0)
    val ratio2 = pushes(2) / pushes(1)
    assert(ratio1 < 10.0, s"1e-4→1e-6 ratio $ratio1 suggests O(m/λ)")
    assert(ratio2 < 10.0, s"1e-6→1e-8 ratio $ratio2 suggests O(m/λ)")
  }

  test("queue never holds duplicates (push count sanity)") {
    val g = GraphGen.randomGraph(100, 4.0, seed = 47)
    val res = FwdPush.runLambda(g, 0, 1e-6, alpha)
    // every push converts α of its residue; the total push count is finite
    // and bounded well below the m/λ folklore bound on this graph
    assert(res.stats.pushOps < 100L * g.m)
  }

  test("IntQueue FIFO semantics with wrap-around at capacity 4") {
    val q = new PushKernel.IntQueue(4)
    (1 to 4).foreach(q.append)
    intercept[IllegalArgumentException](q.append(5))
    (1 to 2).foreach(i => assert(q.pop() == i))
    (5 to 6).foreach(q.append) // wraps past the end of the buffer
    (3 to 6).foreach(i => assert(q.pop() == i))
    assert(q.isEmpty)
    intercept[IllegalArgumentException](q.pop())
  }
}
