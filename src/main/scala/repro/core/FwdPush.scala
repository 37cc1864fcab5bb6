package repro.core

import repro.graph.CSRGraph

/** First-In-First-Out Forward Push (Algorithm 2) — the "common
  * implementation" of FwdPush whose running time the paper proves to be
  * O(m·log(1/λ)) with r_max = λ/m (Theorem 4.3). The push loop itself is
  * [[PushKernel.drain]], run here from the source until no node is active.
  */
object FwdPush {

  /** Run Algorithm 2 to completion (no node active w.r.t. r_max).
    *
    * @param rMax  the push threshold; λ = m·r_max is the ℓ1 guarantee (Eq. 7)
    * @param trace if non-null, (edgePushes, rsum) recorded every `traceEvery`
    *              edge pushes (the paper samples every 4m)
    */
  def run(g: CSRGraph, s: Int, rMax: Double,
          alpha: Double = Common.DefaultAlpha,
          trace: Trace = null, traceEvery: Long = 0L): PPRResult = {
    Common.requireArgs(g.n, s, alpha, rMax = rMax)
    val n = g.n
    val pi = new Array[Double](n)
    val r = new Array[Double](n)
    r(s) = 1.0
    val inQueue = new Array[Boolean](n)
    val q = new PushKernel.IntQueue(n)
    q.append(s); inQueue(s) = true
    val stats = new Stats
    if (trace != null) trace.record(0L, 1.0)
    val rsum = PushKernel.drain(g, s, pi, r, q, inQueue, rMax, alpha, stats,
      trace = trace, traceEvery = traceEvery)
    if (trace != null) trace.record(stats.edgePushes, rsum)
    PPRResult(pi, r, stats)
  }

  /** Convenience: run with r_max = λ/m, the high-precision setting. */
  def runLambda(g: CSRGraph, s: Int, lambda: Double,
                alpha: Double = Common.DefaultAlpha,
                trace: Trace = null, traceEvery: Long = 0L): PPRResult = {
    Common.requireArgs(g.n, s, alpha, lambda = lambda)
    run(g, s, PushKernel.rMaxFor(lambda, g.m), alpha, trace, traceEvery)
  }
}
