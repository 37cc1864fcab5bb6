package repro.core

import repro.graph.CSRGraph

/** Power Iteration (§3.1) — the "global approach".
  *
  * Maintains the alive-walk vector γ^(j) (here `r`) and the underestimate
  * π^(j); each iteration computes γ^(j+1) = (1−α)·γ^(j)·P with a full sweep
  * over the node list (cost charged as m edge pushes per sweep, the global
  * approach's defining property), and adds α·γ^(j) to π̂. Stops when
  * ‖γ^(j)‖₁ ≤ λ, which by Eq. (6) is exactly the ℓ1 error.
  *
  * Dead-end nodes forward their whole (1−α) share back to the source s (§2).
  */
object PowItr {

  def run(g: CSRGraph, s: Int, lambda: Double,
          alpha: Double = Common.DefaultAlpha, trace: Trace = null): PPRResult = {
    Common.requireArgs(g.n, s, alpha, lambda = lambda)
    val n = g.n
    val pi = new Array[Double](n)
    var r = new Array[Double](n)
    var next = new Array[Double](n)
    r(s) = 1.0
    var rsum = 1.0
    val stats = new Stats
    if (trace != null) trace.record(0L, rsum)
    while (rsum > lambda) {
      java.util.Arrays.fill(next, 0.0)
      var v = 0
      while (v < n) {
        val rv = r(v)
        if (rv != 0.0) {
          pi(v) += alpha * rv
          val d = g.outDegree(v)
          if (d == 0) next(s) += (1.0 - alpha) * rv
          else {
            val share = (1.0 - alpha) * rv / d
            g.foreachOut(v)(u => next(u) += share)
          }
          stats.pushOps += 1
        }
        v += 1
      }
      // The global sweep touches every edge whether or not its tail is
      // active — that is what the Figure-6 "residue updates" axis charges
      // PowItr for.
      stats.edgePushes += g.m
      stats.iterations += 1
      val tmp = r; r = next; next = tmp
      rsum = Common.sum(r)
      if (trace != null) trace.record(stats.edgePushes, rsum)
    }
    PPRResult(pi, r, stats)
  }
}
