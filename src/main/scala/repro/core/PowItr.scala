package repro.core

import repro.graph.CSRGraph

/** Power Iteration (§3.1) — the "global approach".
  *
  * Maintains the alive-walk vector γ^(j) (here `r`) and the underestimate
  * π^(j); each iteration computes γ^(j+1) = (1−α)·γ^(j)·P and adds α·γ^(j)
  * to π̂. By Lemma 4.1 that is exactly one `SimFwdPush.step`, so PowItr runs
  * it and differs only in the cost charged: m edge pushes per sweep, the
  * global approach's defining property. Stops when ‖γ^(j)‖₁ ≤ λ, which by
  * Eq. (6) is exactly the ℓ1 error.
  *
  * Dead-end nodes forward their whole (1−α) share back to the source s (§2).
  */
object PowItr {

  def run(g: CSRGraph, s: Int, lambda: Double,
          alpha: Double = Common.DefaultAlpha, trace: Trace = null): PPRResult = {
    Common.requireArgs(g.n, s, alpha, lambda = lambda)
    val pi = new Array[Double](g.n)
    var r = new Array[Double](g.n)
    r(s) = 1.0
    var rsum = 1.0
    val stats = new Stats
    if (trace != null) trace.record(0L, rsum)
    while (rsum > lambda) {
      // The global sweep touches every edge whether or not its tail is
      // active — that is what the Figure-6 "residue updates" axis charges
      // PowItr for, in place of the step's active-degree count.
      val pushed = stats.edgePushes
      r = SimFwdPush.step(g, s, r, pi, alpha, stats)
      stats.edgePushes = pushed + g.m
      rsum = Common.sum(r)
      if (trace != null) trace.record(stats.edgePushes, rsum)
    }
    PPRResult(pi, r, stats)
  }
}
