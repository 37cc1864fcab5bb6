package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{ExactPPR, GraphGen}

class SpeedPPRSpec extends AnyFunSuite {
  private val alpha = 0.2

  test("estimate sums to 1") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 91)
    val res = SpeedPPR.run(g, 0, 0.5, alpha, seed = 1)
    assert(math.abs(res.l1Pi - 1.0) < 1e-9)
  }

  test("relative error criterion at eps = 0.5") {
    val g = GraphGen.randomGraph(50, 4.0, seed = 92)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = SpeedPPR.run(g, 0, 0.5, alpha, seed = 2)
    (0 until g.n).filter(v => exact(v) >= 1.0 / g.n).foreach { v =>
      assert(math.abs(res.pi(v) - exact(v)) <= 0.5 * exact(v) + 1e-12,
        s"node $v: ${res.pi(v)} vs ${exact(v)}")
    }
  }

  test("phase-2 walk budget: at most d_v walks per node, at most m total") {
    val g = GraphGen.scaleFree(500, 6.0, seed = 93)
    val eps = 0.3
    val w = math.ceil(Common.walkCountW(g.n, eps, 1.0 / g.n)).toLong
    val push = PowerPush.run(g, 0, g.m.toDouble / w, alpha, refineRMax = 1.0 / w)
    var total = 0L
    (0 until g.n).foreach { v =>
      val rv = push.residue(v)
      if (rv > 0) {
        val wv = math.ceil(rv * w).toLong
        assert(wv <= math.max(1, g.outDegree(v)), s"node $v needs $wv > d_v walks")
        total += wv
      }
    }
    assert(total <= g.m)
  }

  test("indexed SpeedPPR never needs more endpoints than the index stores") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 94)
    val idx = WalkIndex.buildSpeedPPR(g, alpha, seed = 3)
    // Smallest eps in the paper's sweep — the most index-hungry query.
    val res = SpeedPPR.runIndexed(g, 0, 0.1, idx, alpha, seed = 4)
    assert(math.abs(res.l1Pi - 1.0) < 1e-9)
  }

  test("the same index serves every eps (0.1 .. 0.5)") {
    val g = GraphGen.randomGraph(60, 4.0, seed = 95)
    val exact = ExactPPR.solve(g, 0, alpha)
    val idx = WalkIndex.buildSpeedPPR(g, alpha, seed = 5)
    Seq(0.1, 0.3, 0.5).foreach { eps =>
      val res = SpeedPPR.runIndexed(g, 0, eps, idx, alpha, seed = 6)
      assert(math.abs(res.l1Pi - 1.0) < 1e-9, s"eps=$eps mass")
      (0 until g.n).filter(v => exact(v) >= 1.0 / g.n).foreach { v =>
        assert(math.abs(res.pi(v) - exact(v)) <= eps * exact(v) + 1e-12,
          s"eps=$eps node $v: ${res.pi(v)} vs ${exact(v)}")
      }
    }
  }

  test("more accurate than plain Monte-Carlo at the same eps") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 96)
    val exact = ExactPPR.solve(g, 0, alpha)
    val sp = SpeedPPR.run(g, 0, 0.5, alpha, seed = 7)
    val mc = MonteCarlo.run(g, 0, 0.5, alpha, seed = 7)
    assert(Common.l1Diff(sp.pi, exact) < Common.l1Diff(mc.pi, exact))
  }

  test("deterministic given seed") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 97)
    val a = SpeedPPR.run(g, 0, 0.4, alpha, seed = 8).pi
    val b = SpeedPPR.run(g, 0, 0.4, alpha, seed = 8).pi
    assert(a.toSeq == b.toSeq)
  }

  test("an index with no stored walks gives the live-walk estimate bit for bit") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 99)
    val empty = WalkIndex.build(g, _ => 0)
    val live = SpeedPPR.run(g, 0, 0.3, alpha, seed = 10)
    val indexed = SpeedPPR.runIndexed(g, 0, 0.3, empty, alpha, seed = 10)
    assert(live.pi.toSeq.map(java.lang.Double.doubleToRawLongBits) ==
      indexed.pi.toSeq.map(java.lang.Double.doubleToRawLongBits))
  }

  test("handles dead ends") {
    val g = GraphGen.randomGraph(70, 3.0, seed = 98)
    assert(g.deadEnds.nonEmpty)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = SpeedPPR.run(g, 0, 0.3, alpha, seed = 9)
    assert(math.abs(res.l1Pi - 1.0) < 1e-9)
    assert(Common.l1Diff(res.pi, exact) < 0.1)
  }
}

class ResAccSpec extends AnyFunSuite {
  private val alpha = 0.2

  test("estimate sums to 1") {
    val g = GraphGen.randomGraph(80, 4.0, seed = 101)
    val res = ResAcc.run(g, 0, 0.5, alpha, seed = 1)
    assert(math.abs(res.l1Pi - 1.0) < 1e-6)
  }

  test("relative error criterion at eps = 0.5") {
    val g = GraphGen.randomGraph(50, 4.0, seed = 102)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = ResAcc.run(g, 0, 0.5, alpha, seed = 2)
    (0 until g.n).filter(v => exact(v) >= 1.0 / g.n).foreach { v =>
      assert(math.abs(res.pi(v) - exact(v)) <= 0.5 * exact(v) + 1e-10,
        s"node $v: ${res.pi(v)} vs ${exact(v)}")
    }
  }

  test("no source residue survives to the walk phase") {
    // the accumulation step zeroes r(s) before walking, so the estimate is
    // deterministic in seed and close to exact
    val g = GraphGen.randomGraph(60, 4.0, seed = 103)
    val exact = ExactPPR.solve(g, 0, alpha)
    val res = ResAcc.run(g, 0, 0.3, alpha, seed = 3)
    assert(Common.l1Diff(res.pi, exact) < 0.1)
  }
}
