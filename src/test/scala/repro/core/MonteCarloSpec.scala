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
    (0 until w).foreach(_ => counts(ReferenceWalk.walk(g, 0, 0, alpha, rng)) += 1)
    (0 until g.n).foreach { v =>
      assert(math.abs(counts(v).toDouble / w - exact(v)) < 0.01,
        s"node $v: empirical ${counts(v).toDouble / w} vs exact ${exact(v)}")
    }
  }

  test("walk from a dead-end-heavy graph respects the jump-to-source rule") {
    val g = CSRGraph.fromEdges(3, Seq(0 -> 1)) // 1, 2 dead ends
    val rng = new SplittableRandom(7)
    val counts = new Array[Int](3)
    (0 until 100000).foreach(_ => counts(ReferenceWalk.walk(g, 0, 0, alpha, rng)) += 1)
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
    val avg = (0 until w).map(_ => ReferenceWalk.walk(g, 0, 0, alpha, rng).toLong).sum.toDouble / w
    // Number of moves is geometric with success prob α: E = (1-α)/α = 4.
    assert(math.abs(avg - (1 - alpha) / alpha) < 0.1, s"avg moves $avg")
  }

  test("the neighbour pick is exactly uniform where a bare multiply-shift is not") {
    // For 32-bit x, ⌊x·d / 2^32⌋ at d = 3·2^29 is ⌊3x/8⌋, whose residues
    // mod 3 come up 1/4, 3/8 and 3/8 of the time without the rejection step.
    val d = 3 << 29
    val rng = new SplittableRandom(21)
    val draws = 200000
    val counts = new Array[Int](3)
    (0 until draws).foreach { _ =>
      val p = MonteCarlo.pick(rng.nextLong(), d, rng)
      assert(p >= 0 && p < d)
      counts(p % 3) += 1
    }
    counts.foreach(c => assert(math.abs(c.toDouble / draws - 1.0 / 3) < 0.01, counts.mkString(", ")))
  }

  test("the neighbour pick stays in range at d = 1 and d = Int.MaxValue") {
    val rng = new SplittableRandom(22)
    Seq(0L, -1L).foreach(x => assert(MonteCarlo.pick(x, 1, rng) == 0))
    assert(MonteCarlo.pick(-1L, Int.MaxValue, rng) == Int.MaxValue - 1)
    (0 until 100000).foreach { _ =>
      assert(MonteCarlo.pick(rng.nextLong(), 1, rng) == 0)
      val p = MonteCarlo.pick(rng.nextLong(), Int.MaxValue, rng)
      assert(p >= 0 && p < Int.MaxValue)
    }
  }

  test("the stop threshold is ⌈α·2^32⌉, so P(stop) ∈ [α, α + 2^-32)") {
    assert(MonteCarlo.stopThreshold(0.2) == 858993460L)
    assert(MonteCarlo.stopThreshold(Double.MinPositiveValue) >= 1L)
    val two32 = 4294967296.0
    Seq(1e-12, 0.15, 0.2, 0.5, 0.85, 1.0 - 1e-12).foreach { a =>
      val t = MonteCarlo.stopThreshold(a)
      assert(t / two32 >= a && t / two32 < a + 1.0 / two32, s"alpha = $a")
    }
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
