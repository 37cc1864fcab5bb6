package repro.core

import repro.graph.CSRGraph

/** ResAcc-lite — our rendition of ResAcc [Lin et al., ICDE 2020], the
  * "accumulate residue returning to the source" FORA accelerator the paper
  * benchmarks against.
  *
  * Idea: during the push phase, mass that flows *back to s* would seed walks
  * whose stop distribution is exactly π_s again; so instead of walking it,
  * accumulate it and redistribute it proportionally to the current estimate
  * before the Monte-Carlo phase (using π ≈ π̂/‖π̂‖₁ as the self-similar
  * proxy). This reduces both walk count and variance relative to FORA.
  *
  * This is a simplified ("lite") but behaviour-preserving version; see
  * DESIGN.md §4.
  */
object ResAcc {

  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult = {
    Common.requireArgs(g.n, s, alpha, eps = eps)
    val n = g.n
    val w = Common.walkCount(n, eps)
    val push = FwdPush.run(g, s, 1.0 / math.sqrt(g.m.toDouble * w), alpha)
    val pi = push.pi
    val r = push.residue

    // Accumulated residue sitting at the source: its PPR contribution is
    // r(s)·π_s; approximate π_s by the normalized deterministic estimate.
    val rs = r(s)
    if (rs > 0.0) {
      val piSum = Common.sum(pi)
      if (piSum > 0.0) {
        val scale = rs / piSum
        var i = 0
        while (i < n) { pi(i) += scale * pi(i); i += 1 }
        r(s) = 0.0
      }
    }
    WalkPhase.run(g, s, push, w, alpha, seed, index = null)
  }
}
