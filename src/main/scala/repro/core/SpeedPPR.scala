package repro.core

import repro.graph.CSRGraph

/** SpeedPPR (Algorithm 4) — the paper's Approx-SSPPR contribution.
  *
  * Phase 1 runs PowerPush with λ = m/W followed by the O(m) refinement so
  * that no node is active w.r.t. r_max = 1/W; consequently every node needs
  * W_v = ⌈r(s,v)·W⌉ ≤ ⌈d_v·r_max·W⌉ = d_v walks in phase 2, for at most m
  * walks in total. On scale-free graphs this yields the
  * O(n·log n·log(1/ε)) bound of Theorem 6.1, and the index version stores at
  * most m walks independently of ε.
  */
object SpeedPPR {

  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index = null)

  /** Index version: consumes the ε-independent d_v-walks-per-node index. */
  def runIndexed(g: CSRGraph, s: Int, eps: Double, index: WalkIndex,
                 alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index)

  private def runImpl(g: CSRGraph, s: Int, eps: Double, alpha: Double,
                      seed: Long, index: WalkIndex): PPRResult = {
    Common.requireArgs(g.n, s, alpha, eps = eps)
    val w = Common.walkCount(g.n, eps)
    // PowerPush with the built-in refinement enforcing r(s,v) ≤ d_v / W, so
    // with the index only dead ends need live top-up walks.
    val push = PowerPush.run(g, s, math.max(g.m, 1).toDouble / w, alpha, refineRMax = 1.0 / w)
    WalkPhase.run(g, s, push, w, alpha, seed, index)
  }
}
