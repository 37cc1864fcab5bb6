package repro.core

import repro.graph.CSRGraph

/** Power Iteration with Forward Push (Algorithm 3) — the paper's core
  * high-precision contribution, unifying the local and global approaches:
  *
  *  - **Queue phase** (local): FIFO pushes with r_max = λ/m while the active
  *    set is small — Algorithm 2's loop, [[PushKernel.drain]], stopped early.
  *  - **Scan phase** (global): once the queue holds more than max(1, n/4)
  *    nodes, switch to sequential sweeps over the id-sorted node
  *    list / concatenated CSR edge array (cache-friendly), still pushing
  *    *asynchronously* in place.
  *  - **Dynamic ℓ1 threshold**: the scan phase runs in [[EpochNum]] (= 8)
  *    epochs; epoch i uses r'_max = [[epochLambda]](λ, i)/m, so early pushes
  *    are the high unit-cost-benefit ones and nodes accumulate residue before
  *    pushing (§5).
  *
  * The returned residues satisfy Σr ≤ λ; pass `refineRMax` to additionally
  * enforce r(s,v) ≤ d_v·r_max for all v (SpeedPPR's post-refinement, Lemma
  * 4.5), run as further sweeps at that r_max: O(m + n·S) for S sweeps.
  */
object PowerPush {

  /** Epochs of the scan phase's dynamic threshold (§5). */
  final val EpochNum = 8

  /** Epoch i's ℓ1 target λ^(i/[[EpochNum]]): from λ^(1/8) at i = 1 down to
    * λ at i = [[EpochNum]].
    */
  def epochLambda(lambda: Double, i: Int): Double = math.pow(lambda, i.toDouble / EpochNum)

  def run(g: CSRGraph, s: Int, lambda: Double,
          alpha: Double = Common.DefaultAlpha,
          refineRMax: Double = Double.NaN,
          trace: Trace = null, traceEvery: Long = 0L): PPRResult = {
    Common.requireArgs(g.n, s, alpha, lambda = lambda)
    val n = g.n
    val m = g.m
    val pi = new Array[Double](n)
    val r = new Array[Double](n)
    r(s) = 1.0
    val stats = new Stats
    if (trace != null) trace.record(0L, 1.0)

    // ---- Queue phase (Algorithm 3, lines 7-13) ----
    val inQueue = new Array[Boolean](n)
    val q = new PushKernel.IntQueue(n)
    q.append(s); inQueue(s) = true
    var rsum = PushKernel.drain(g, s, pi, r, q, inQueue, PushKernel.rMaxFor(lambda, m), alpha, stats,
      cap = math.max(1, n / 4), stopSum = lambda, trace = trace, traceEvery = traceEvery)

    // ---- Scan phase with dynamic threshold (lines 14-24) ----
    if (rsum > lambda) {
      var i = 1
      while (i <= EpochNum) {
        val lambdaEpoch = epochLambda(lambda, i)
        val rMaxEpoch = PushKernel.rMaxFor(lambdaEpoch, m)
        while (rsum > lambdaEpoch) {
          sweep(g, s, pi, r, rMaxEpoch, alpha, stats)
          stats.iterations += 1
          rsum = Common.sum(r)
          if (trace != null) trace.record(stats.edgePushes, rsum)
        }
        i += 1
      }
    }

    // ---- Optional O(m) refinement to a per-node residue cap (Lemma 4.5) ----
    if (!refineRMax.isNaN) {
      refineToRMax(g, s, pi, r, refineRMax, alpha, stats)
      if (trace != null) trace.record(stats.edgePushes, Common.sum(r))
    }

    PPRResult(pi, r, stats)
  }

  /** One asynchronous sequential sweep: push every node active w.r.t. rMax,
    * in id order, updates visible within the sweep. Returns the number of
    * push ops it made.
    *
    * A dead-end source, which gets its whole (1−α) share back from each push,
    * is pushed again on the spot until inactive (the FIFO's arithmetic)
    * rather than once per O(n) sweep, ~3 100 times.
    */
  private def sweep(g: CSRGraph, s: Int, pi: Array[Double], r: Array[Double],
                    rMax: Double, alpha: Double, stats: Stats): Long = {
    val ops = stats.pushOps
    var v = 0
    while (v < g.n) {
      val d = g.outDegree(v)
      var rv = r(v)
      while (Common.isActive(rv, d, rMax)) {
        pi(v) += alpha * rv
        r(v) = 0.0
        if (d == 0) { r(s) += (1.0 - alpha) * rv; stats.edgePushes += 1 }
        else {
          val share = (1.0 - alpha) * rv / d
          g.foreachOut(v)(u => r(u) += share)
          stats.edgePushes += d
        }
        stats.pushOps += 1
        rv = if (v == s && d == 0) r(v) else 0.0
      }
      v += 1
    }
    stats.pushOps - ops
  }

  /** Sweep at rMax until a sweep pushes nothing, so no node is active w.r.t.
    * rMax. Lemma 4.5's edge-push bound holds in any push order: starting from
    * Σr ≤ m·rMax, each push of a non-dead-end v moves more than α·d_v·rMax
    * into π, so there are fewer than m/α edge pushes. The sweeps add O(n)
    * visits each, so the cost is O(m + n·S) for S sweeps, and the lemma does
    * not bound S: residue moves only one hop per sweep against id order, so S
    * grows with the length of the activation chains that run from higher to
    * lower ids (DESIGN.md §2). Mutates pi, r and stats in place; refinement
    * sweeps are not counted in `stats.iterations`.
    */
  def refineToRMax(g: CSRGraph, s: Int, pi: Array[Double], r: Array[Double],
                   rMax: Double, alpha: Double, stats: Stats): Unit = {
    Common.requireArgs(g.n, s, alpha, rMax = rMax)
    while (sweep(g, s, pi, r, rMax, alpha, stats) > 0L) {}
  }
}
