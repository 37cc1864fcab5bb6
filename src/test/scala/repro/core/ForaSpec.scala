package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ExactPPR, GraphGen}

class ForaSpec extends AnyFunSuite {
  private val alpha = 0.2

  test("estimate sums to 1 (push reserve + all walk weight)") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 81)
    val res = Fora.run(g, 0, 0.5, alpha, seed = 1)
    assert(math.abs(res.l1Pi - 1.0) < 1e-9)
  }

  test("relative error criterion at eps = 0.5 for nodes with pi >= 1/n") {
    val g = GraphGen.randomGraph(50, 4.0, seed = 82)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = Fora.run(g, 0, 0.5, alpha, seed = 2)
    val mu = 1.0 / g.n
    (0 until g.n).filter(v => exact(v) >= mu).foreach { v =>
      assert(math.abs(res.pi(v) - exact(v)) <= 0.5 * exact(v) + 1e-12,
        s"node $v: ${res.pi(v)} vs ${exact(v)}")
    }
  }

  test("l1 error improves over the pure push phase") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 83)
    val exact = ExactPPR.solve(g, 1, alpha)
    val eps = 0.3
    val w = math.ceil(Common.walkCountW(g.n, eps, 1.0 / g.n)).toLong
    val rMax = 1.0 / math.sqrt(g.m.toDouble * w)
    val pushOnly = FwdPush.run(g, 1, rMax, alpha)
    val fora = Fora.run(g, 1, eps, alpha, seed = 3)
    assert(Common.l1Diff(fora.pi, exact) < Common.l1Diff(pushOnly.pi, exact))
  }

  test("indexed FORA matches non-indexed within Monte-Carlo noise") {
    val g = GraphGen.randomGraph(60, 4.0, seed = 84)
    val exact = ExactPPR.solve(g, 0, alpha)
    val idx = WalkIndex.buildFora(g, 0.2, alpha, seed = 4)
    val indexed = Fora.runIndexed(g, 0, 0.2, idx, alpha, seed = 5)
    assert(math.abs(indexed.l1Pi - 1.0) < 1e-9)
    (0 until g.n).filter(v => exact(v) >= 1.0 / g.n).foreach { v =>
      assert(math.abs(indexed.pi(v) - exact(v)) <= 0.3 * exact(v) + 1e-12,
        s"node $v: ${indexed.pi(v)} vs ${exact(v)}")
    }
  }

  test("an index built for eps1 serves a query with larger eps2") {
    val g = GraphGen.randomGraph(60, 4.0, seed = 85)
    val idx = WalkIndex.buildFora(g, 0.1, alpha, seed = 6)
    val res = Fora.runIndexed(g, 0, 0.5, idx, alpha, seed = 7)
    assert(math.abs(res.l1Pi - 1.0) < 1e-9)
  }

  test("an index with no stored walks gives the live-walk estimate bit for bit") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 88)
    val empty = WalkIndex.build(g, _ => 0)
    val live = Fora.run(g, 0, 0.3, alpha, seed = 11)
    val indexed = Fora.runIndexed(g, 0, 0.3, empty, alpha, seed = 11)
    assert(live.pi.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
      indexed.pi.toSeq.map(java.lang.Double.doubleToRawLongBits))
  }

  test("deterministic given seed") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 86)
    val a = Fora.run(g, 0, 0.4, alpha, seed = 8).pi
    val b = Fora.run(g, 0, 0.4, alpha, seed = 8).pi
    assert(a.toSeq == b.toSeq)
  }

  test("residues are all consumed (returned residue vector is zero)") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 87)
    val res = Fora.run(g, 0, 0.4, alpha, seed = 9)
    assert(res.residue.forall(_ == 0.0))
  }

  test("works when the source is a dead end") {
    val g = repro.graph.CSRGraph.fromEdges(4, Seq(0 -> 1, 1 -> 2, 2 -> 0))
    val exact = ExactPPR.solve(g, 3, alpha)
    val res = Fora.run(g, 3, 0.5, alpha, seed = 10)
    assert(Common.l1Diff(res.pi, exact) < 0.2)
  }
}
