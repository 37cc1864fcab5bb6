package repro.core

import java.util.SplittableRandom
import repro.graph.CSRGraph

/** The Monte-Carlo phase of the two-phase framework (Eq. 13-14), shared by
  * FORA(+), ResAcc, SpeedPPR(-Index) and plain Monte-Carlo: every node v with
  * leftover residue issues W_v = ⌈r(s,v)·W⌉ α-walks, each adding r(s,v)/W_v
  * to the node it stops at. W is the Chernoff count of Eq. (12) with μ = 1/n.
  */
object WalkPhase {

  /** Live walks kept in flight at once. Each step of a walk is a random read
    * of the CSR arrays that the next step depends on; advancing independent
    * walks round-robin lets the CPU overlap those cache misses.
    */
  private final val Lanes = 16

  /** Consume the residues of `push` into its estimate and add each W_v to
    * `pushOps`. Walks are issued in node-id order, all drawing from one
    * `SplittableRandom(seed)`; up to [[Lanes]] live walks advance one step
    * per round, and a lane whose walk stops takes the next pending walk.
    * Each step is [[MonteCarlo.walkSegment]]'s: one `nextLong()` read by
    * [[MonteCarlo.stops]] and [[MonteCarlo.pick]].
    *
    * @param index stored walks, or null for none: v's first `countOf(v)`
    *              walks are read from it where they are issued, the rest are
    *              walked live. A stored dead-end marker is a walk that left
    *              a dead end without stopping: it takes a lane at s and flips
    *              its next coin there, as a live walk would
    * @return `push` itself: its estimate `pi` and its residue vector are
    *         updated in place, r(v) zeroed as v's walks are issued
    */
  def run(g: CSRGraph, s: Int, push: PPRResult, w: Long, alpha: Double,
          seed: Long, index: WalkIndex): PPRResult = {
    val pi = push.pi
    val r = push.residue
    val stats = push.stats
    val offset = g.offset
    val edges = g.edges
    val rng = new SplittableRandom(seed)
    val threshold = MonteCarlo.stopThreshold(alpha)
    // Lane i holds a walk at node at(i) carrying weight(i); lanes 0 until
    // live are in flight.
    val at = new Array[Int](Lanes)
    val weight = new Array[Double](Lanes)
    var live = 0
    // The pending walks: k of node cur's wv walks are issued, the first
    // `stored` from the index; nodes from next on are not yet visited.
    var next = 0
    var cur = 0
    var wv, k, stored = 0L
    var inc = 0.0
    var pending = true
    while (pending || live > 0) {
      while (pending && live < Lanes) {
        if (k < wv) {
          if (k < stored) {
            val e = index.endpoints((index.offsets(cur) + k).toInt)
            if (e >= 0) pi(e) += inc
            else { at(live) = s; weight(live) = inc; live += 1 } // a dead-end marker
          } else { at(live) = cur; weight(live) = inc; live += 1 }
          k += 1
        } else if (next < g.n) {
          val rv = r(next)
          if (rv > 0.0) {
            cur = next
            wv = math.ceil(rv * w).toLong
            inc = rv / wv
            stored = if (index == null) 0L else index.countOf(cur)
            k = 0L
            stats.pushOps += wv
            r(next) = 0.0
          }
          next += 1
        } else pending = false
      }
      var i = 0
      while (i < live) {
        val u = at(i)
        val x = rng.nextLong()
        if (MonteCarlo.stops(x, threshold)) {
          pi(u) += weight(i)
          live -= 1
          at(i) = at(live)
          weight(i) = weight(live)
        } else {
          val o = offset(u)
          val d = offset(u + 1) - o
          at(i) = if (d == 0) s else edges(o + MonteCarlo.pick(x, d, rng))
          i += 1
        }
      }
    }
    push
  }
}
