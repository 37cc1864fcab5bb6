package repro.core

import java.util.SplittableRandom
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}

class MonteCarloSpec extends AnyFunSuite {
  private val alpha = 0.2

  test("walk endpoint distribution approximates exact PPR on Fig1") {
    val g = Fig1.graph
    val exact = ExactPPR.solve(g, 0, alpha)
    val rng = new SplittableRandom(123)
    val w = 200000
    val counts = new Array[Int](g.n)
    (0 until w).foreach(_ => counts(MonteCarlo.walk(g, 0, 0, alpha, rng)) += 1)
    (0 until g.n).foreach { v =>
      assert(math.abs(counts(v).toDouble / w - exact(v)) < 0.01,
        s"node $v: empirical ${counts(v).toDouble / w} vs exact ${exact(v)}")
    }
  }

  test("walk from a dead-end-heavy graph respects the jump-to-source rule") {
    val g = CSRGraph.fromEdges(3, Seq(0 -> 1)) // 1, 2 dead ends
    val rng = new SplittableRandom(7)
    val counts = new Array[Int](3)
    (0 until 100000).foreach(_ => counts(MonteCarlo.walk(g, 0, 0, alpha, rng)) += 1)
    assert(counts(2) == 0, "unreachable node must never be an endpoint")
    val exact = ExactPPR.solve(g, 0, alpha)
    assert(math.abs(counts(0).toDouble / 100000 - exact(0)) < 0.01)
  }

  test("expected walk length is about 1/alpha - 1 moves") {
    // On the cycle 0 -> 1 -> ... -> 199 -> 0 a walk from 0 stops at the node
    // whose id is its number of moves, unless it moves 200 times or more
    // (probability 0.8^200).
    val g = CSRGraph.fromEdges(200, (0 until 200).map(v => v -> (v + 1) % 200))
    val rng = new SplittableRandom(5)
    val w = 100000
    val avg = (0 until w).map(_ => MonteCarlo.walk(g, 0, 0, alpha, rng).toLong).sum.toDouble / w
    // Number of moves is geometric with success prob α: E = (1-α)/α = 4.
    assert(math.abs(avg - (1 - alpha) / alpha) < 0.1, s"avg moves $avg")
  }

  test("deterministic given the seed") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 1)
    val a = MonteCarlo.run(g, 0, 0.5, alpha, seed = 9).pi
    val b = MonteCarlo.run(g, 0, 0.5, alpha, seed = 9).pi
    assert(a.toSeq == b.toSeq)
  }

  test("estimate sums to exactly 1 (every walk stops somewhere)") {
    val g = GraphGen.randomGraph(60, 3.0, seed = 2)
    val res = MonteCarlo.run(g, 0, 0.5, alpha, seed = 3)
    assert(math.abs(res.l1Pi - 1.0) < 1e-9)
  }

  test("relative error criterion holds for nodes with pi >= 1/n (eps = 0.5)") {
    val g = GraphGen.randomGraph(40, 4.0, seed = 4)
    val s = 0
    val exact = ExactPPR.solve(g, s, alpha)
    val res = MonteCarlo.run(g, s, 0.5, alpha, seed = 5)
    val mu = 1.0 / g.n
    (0 until g.n).filter(v => exact(v) >= mu).foreach { v =>
      assert(math.abs(res.pi(v) - exact(v)) <= 0.5 * exact(v) + 1e-12,
        s"node $v: est ${res.pi(v)} exact ${exact(v)}")
    }
  }

  test("walk count W follows Eq. (12)") {
    val n = 1000
    val eps = 0.3
    val w = Common.walkCountW(n, eps, 1.0 / n)
    val expected = 2.0 * (2.0 * eps / 3.0 + 2.0) * math.log(n) / (eps * eps) * n
    assert(math.abs(w - expected) < 1e-6)
  }

  test("larger eps means fewer walks (pushOps)") {
    val g = GraphGen.randomGraph(50, 3.0, seed = 6)
    val loose = MonteCarlo.run(g, 0, 0.5, alpha, seed = 7)
    val tight = MonteCarlo.run(g, 0, 0.2, alpha, seed = 7)
    assert(loose.stats.pushOps < tight.stats.pushOps)
  }
}
