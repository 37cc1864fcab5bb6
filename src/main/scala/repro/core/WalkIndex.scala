package repro.core

import java.util.SplittableRandom
import java.util.stream.IntStream
import repro.graph.CSRGraph

/** Pre-generated α-random-walk endpoints — the index structure behind FORA+
  * and SpeedPPR-Index (§6).
  *
  * For each node v, `countOf(v)` walk results from v are stored contiguously.
  * Because the dead-end→source redirect depends on the (unknown at build
  * time) query source, a walk that reaches a dead end *without stopping* is
  * stored as the marker `~w` (bitwise complement of the dead end's id); at
  * query time [[WalkPhase]] finishes such a walk live from the query source —
  * this keeps index semantics exactly equal to live-walk semantics while the
  * index stays source- and ε-independent.
  *
  * Index size accounting (Table 2): 4 bytes per stored endpoint + 8 bytes
  * per node for the offset array.
  */
final class WalkIndex(val offsets: Array[Long], val endpoints: Array[Int]) {
  def n: Int = offsets.length - 1
  def countOf(v: Int): Long = offsets(v + 1) - offsets(v)
  def totalWalks: Long = endpoints.length.toLong
  def sizeBytes: Long = 4L * endpoints.length + 8L * offsets.length
}

object WalkIndex {

  /** Walks per block of the build: a block is a run of whole nodes that
    * ends once it holds this many walks (the last block may hold fewer).
    */
  private final val BlockWalks = 1 << 15

  /** Build an index with `walksFor(v)` stored walks per node.
    *
    *  - FORA+ uses K_v = ⌈d_v·√(W/m)⌉ + 1 (ε-dependent through W).
    *  - SpeedPPR-Index uses exactly d_v (ε-independent, total ≤ m).
    *
    * The nodes are cut into blocks of about [[BlockWalks]] walks, and the
    * blocks fill their slots in parallel on the current fork-join pool.
    * Block 0 draws from `SplittableRandom(seed)`, block b ≥ 1 from the
    * b-th `split()` of another `SplittableRandom(seed)`. The streams are
    * fixed by (seed, b) alone, so the index is the same at any thread count,
    * and an index of one block is the same as one serial walk loop's.
    */
  def build(g: CSRGraph, walksFor: Int => Int,
            alpha: Double = Common.DefaultAlpha, seed: Long = 99L): WalkIndex = {
    Common.requireAlpha(alpha)
    val offsets = new Array[Long](g.n + 1)
    var v = 0
    while (v < g.n) { offsets(v + 1) = offsets(v) + math.max(0, walksFor(v)); v += 1 }
    val total = offsets(g.n)
    require(total <= Int.MaxValue, s"index too large: $total walks")
    val endpoints = new Array[Int](total.toInt)
    // Block b covers nodes firstNode(b) until firstNode(b + 1).
    val firstNode = CSRGraph.cutRuns(g.n, offsets(_), BlockWalks)
    val blocks = firstNode.length - 1
    val streams = new SplittableRandom(seed)
    val rngs = Array.tabulate(blocks)(b => if (b == 0) new SplittableRandom(seed) else streams.split())
    val threshold = MonteCarlo.stopThreshold(alpha)
    IntStream.range(0, blocks).parallel().forEach { b =>
      val rng = rngs(b)
      var u = firstNode(b)
      while (u < firstNode(b + 1)) {
        var k = offsets(u).toInt
        val end = offsets(u + 1).toInt
        while (k < end) { endpoints(k) = MonteCarlo.walkSegment(g, u, threshold, rng); k += 1 }
        u += 1
      }
    }
    new WalkIndex(offsets, endpoints)
  }

  /** FORA+ index for relative error ε (μ = 1/n): K_v = ⌈d_v·√(W/m)⌉ + 1. */
  def buildFora(g: CSRGraph, eps: Double,
                alpha: Double = Common.DefaultAlpha, seed: Long = 99L): WalkIndex = {
    val w = Common.walkCountW(g.n, eps, 1.0 / g.n)
    val scale = math.sqrt(w / g.m)
    build(g, v => math.ceil(g.outDegree(v) * scale).toInt + 1, alpha, seed)
  }

  /** SpeedPPR index: exactly d_v walks per node, at most m in total,
    * independent of ε.
    */
  def buildSpeedPPR(g: CSRGraph,
                    alpha: Double = Common.DefaultAlpha, seed: Long = 99L): WalkIndex =
    build(g, v => g.outDegree(v), alpha, seed)
}
