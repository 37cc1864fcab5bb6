package repro.core

import repro.graph.CSRGraph

/** Simultaneous Forward Push (§4.1) — the FwdPush variant that is provably
  * equivalent to PowItr (Lemma 4.1): r_max = 0 (every node with non-zero
  * residue is active) and all pushes of an iteration are applied to the
  * *previous* iteration's residues.
  *
  * `step` is the one synchronous push step. `PowItr.run` is the loop over
  * it, charging m edge pushes per sweep instead of the active degrees.
  */
object SimFwdPush {

  /** One simultaneous iteration: returns the next residue vector, adding the
    * α-shares into `pi` in place. Counts only active nodes' degrees (unlike
    * PowItr's full-matrix charge) — SimFwdPush is still a local approach.
    */
  def step(g: CSRGraph, s: Int, r: Array[Double], pi: Array[Double],
           alpha: Double, stats: Stats): Array[Double] = {
    val next = new Array[Double](g.n)
    var v = 0
    while (v < g.n) {
      val rv = r(v)
      if (rv != 0.0) {
        pi(v) += alpha * rv
        val d = g.outDegree(v)
        if (d == 0) { next(s) += (1.0 - alpha) * rv; stats.edgePushes += 1 }
        else {
          val share = (1.0 - alpha) * rv / d
          g.foreachOut(v)(u => next(u) += share)
          stats.edgePushes += d
        }
        stats.pushOps += 1
      }
      v += 1
    }
    stats.iterations += 1
    next
  }
}
