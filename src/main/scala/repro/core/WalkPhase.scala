package repro.core

import java.util.Random
import repro.graph.CSRGraph

/** The Monte-Carlo phase of the two-phase framework (Eq. 13-14), shared by
  * FORA(+), ResAcc and SpeedPPR(-Index): every node v with leftover residue
  * issues W_v = ⌈r(s,v)·W⌉ α-walks, each adding r(s,v)/W_v to the node it
  * stops at. W is the Chernoff count of Eq. (12) with μ = 1/n.
  */
object WalkPhase {

  /** Consume the residues of `push` into its estimate, visiting nodes in id
    * order with one `Random(seed)`, and add each W_v to `pushOps`.
    *
    * @param index stored walks, or null for none: v's first `countOf(v)`
    *              walks are read from it, the rest are walked live
    * @return the estimate with an all-zero residue vector
    */
  def run(g: CSRGraph, s: Int, push: PPRResult, w: Long, alpha: Double,
          seed: Long, index: WalkIndex): PPRResult = {
    val pi = push.pi
    val r = push.residue
    val stats = push.stats
    val rng = new Random(seed)
    var v = 0
    while (v < g.n) {
      val rv = r(v)
      if (rv > 0.0) {
        val wv = math.ceil(rv * w).toLong
        val inc = rv / wv
        val stored = if (index == null) 0L else index.countOf(v)
        var k = 0L
        while (k < wv) {
          val u =
            if (k < stored) index.endpoint(v, k, g, s, alpha, rng)
            else MonteCarlo.walk(g, s, v, alpha, rng)
          pi(u) += inc
          k += 1
        }
        stats.pushOps += wv
      }
      v += 1
    }
    PPRResult(pi, new Array[Double](g.n), stats)
  }
}
