package repro.core

import java.util.{Arrays, SplittableRandom}
import java.util.concurrent.{Callable, ForkJoinPool}
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, ExactPPR, GraphGen}

class WalkIndexSpec extends AnyFunSuite {
  private val alpha = 0.2

  /** Enough walks for several build blocks (a block holds about 2^15). */
  private lazy val multiBlock = {
    val g = GraphGen.randomGraph(20000, 8.0, seed = 81)
    assert(g.m > 3 * (1 << 15))
    g
  }

  test("SpeedPPR index stores exactly d_v walks per node, total = m") {
    for (g <- Seq(GraphGen.randomGraph(100, 4.0, seed = 71), multiBlock)) {
      val idx = WalkIndex.buildSpeedPPR(g, alpha)
      assert(idx.totalWalks == g.m)
      (0 until g.n).foreach(v => assert(idx.countOf(v) == g.outDegree(v)))
    }
  }

  test("SpeedPPR index size is independent of eps by construction") {
    val g = GraphGen.randomGraph(100, 4.0, seed = 72)
    val idx = WalkIndex.buildSpeedPPR(g, alpha)
    // The build does not take eps at all; assert the documented bound.
    assert(idx.sizeBytes == 4L * g.m + 8L * (g.n + 1))
  }

  test("FORA index stores K_v = ceil(d_v*sqrt(W/m)) + 1 walks per node") {
    val g = GraphGen.randomGraph(100, 4.0, seed = 73)
    val eps = 0.3
    val idx = WalkIndex.buildFora(g, eps, alpha)
    val w = Common.walkCountW(g.n, eps, 1.0 / g.n)
    val scale = math.sqrt(w / g.m)
    (0 until g.n).foreach { v =>
      assert(idx.countOf(v) == math.ceil(g.outDegree(v) * scale).toLong + 1)
    }
  }

  test("FORA index grows as eps shrinks; SpeedPPR index does not") {
    val g = GraphGen.randomGraph(200, 4.0, seed = 74)
    val f1 = WalkIndex.buildFora(g, 0.5, alpha)
    val f2 = WalkIndex.buildFora(g, 0.1, alpha)
    assert(f2.totalWalks > 2 * f1.totalWalks)
    val s1 = WalkIndex.buildSpeedPPR(g, alpha)
    assert(s1.totalWalks <= g.m)
  }

  test("stored endpoints are either valid nodes or dead-end markers") {
    for (g <- Seq(GraphGen.randomGraph(100, 4.0, seed = 75), multiBlock)) {
      val idx = WalkIndex.buildSpeedPPR(g, alpha)
      idx.endpoints.foreach { e =>
        val node = if (e >= 0) e else ~e
        assert(node >= 0 && node < g.n)
        if (e < 0) assert(g.outDegree(~e) == 0, "marker must reference a dead end")
      }
    }
  }

  test("indexed endpoint distribution matches the exact PPR of the start node") {
    // Walk phase from residue 1 on v with every walk read from the index
    // (dead-end markers go on from s), against live walks from v.
    val g = GraphGen.randomGraph(40, 4.0, seed = 76)
    val v = 1
    val s = 0
    val walks = 100000
    val idx = WalkIndex.build(g, x => if (x == v) walks else 0, alpha, seed = 77)
    assert(idx.endpoints.exists(_ < 0), "no dead-end marker to continue")
    val residue = new Array[Double](g.n)
    residue(v) = 1.0
    val push = PPRResult(new Array[Double](g.n), residue, new Stats)
    val pi = WalkPhase.run(g, s, push, walks, alpha, seed = 78, idx).pi
    // Reference distribution: empirical live walks with the same semantics.
    val ref = new Array[Int](g.n)
    val rng = new SplittableRandom(79)
    (0 until walks).foreach(_ => ref(ReferenceWalk.walk(g, s, v, alpha, rng)) += 1)
    (0 until g.n).foreach { u =>
      assert(math.abs(pi(u) - ref(u).toDouble / walks) < 0.02,
        s"node $u: idx ${pi(u)} vs live ${ref(u).toDouble / walks}")
    }
  }

  test("deterministic build") {
    val g = GraphGen.randomGraph(60, 3.0, seed = 80)
    val a = WalkIndex.buildSpeedPPR(g, alpha, seed = 13)
    val b = WalkIndex.buildSpeedPPR(g, alpha, seed = 13)
    assert(a.endpoints.toSeq == b.endpoints.toSeq)
  }

  test("the index is the same at any thread count") {
    def buildOn(threads: Int): Array[Int] = {
      val pool = new ForkJoinPool(threads)
      try pool.submit(new Callable[Array[Int]] {
        def call(): Array[Int] = WalkIndex.buildSpeedPPR(multiBlock, alpha, seed = 13).endpoints
      }).get()
      finally pool.shutdown()
    }
    assert(Arrays.equals(buildOn(1), buildOn(3)))
  }

  test("a one-block index is pinned bit for bit") {
    // (n, m, hash of endpoints): the same as one serial walk loop from
    // SplittableRandom(seed) gives, since a one-block build draws from it.
    val g = GraphGen.randomGraph(100, 4.0, seed = 71)
    val idx = WalkIndex.buildSpeedPPR(g, seed = 99)
    assert((g.n, g.m, Arrays.hashCode(idx.endpoints)) == ((100, 429, -533701504)))
  }
}
