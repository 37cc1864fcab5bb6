package repro.core

import repro.graph.CSRGraph

/** FORA and FORA+ (§6.1) — the state-of-the-art Approx-SSPPR baseline.
  *
  * Two phases: (1) FwdPush with r_max = 1/√(m·W), (2) [[WalkPhase]]:
  * for each node v with leftover residue, W_v = ⌈r(s,v)·W⌉ walks from v, each
  * stopping walk adding r(s,v)/W_v to its stop node (Eq. 13-14). W is the
  * Chernoff count of Eq. (12) with μ = 1/n.
  */
object Fora {

  /** Index-free FORA. */
  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index = null)

  /** FORA+ — uses a pre-built walk index (built for ε_build ≤ ε to guarantee
    * enough stored walks; any shortfall is topped up with live walks).
    */
  def runIndexed(g: CSRGraph, s: Int, eps: Double, index: WalkIndex,
                 alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult =
    runImpl(g, s, eps, alpha, seed, index)

  private def runImpl(g: CSRGraph, s: Int, eps: Double, alpha: Double,
                      seed: Long, index: WalkIndex): PPRResult = {
    Common.requireArgs(g.n, s, alpha, eps = eps)
    val w = Common.walkCount(g.n, eps)
    val push = FwdPush.run(g, s, 1.0 / math.sqrt(g.m.toDouble * w), alpha)
    WalkPhase.run(g, s, push, w, alpha, seed, index)
  }
}
