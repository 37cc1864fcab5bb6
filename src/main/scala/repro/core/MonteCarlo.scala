package repro.core

import java.util.SplittableRandom
import repro.graph.CSRGraph

/** One α-random walk, and the plain Monte-Carlo Approx-SSPPR baseline
  * (§6.1): W independent walks from s; π̂(s,v) = f(s,v)/W.
  */
object MonteCarlo {

  /** Walk one α-random walk and return the node it stops at.
    *
    * Semantics per §2: at the current node, stop with probability α; else
    * move uniformly to an out-neighbor, or jump back to the *query source* s
    * at a dead end. `start` may differ from `s`. [[WalkPhase]] advances its
    * walks with the same rule, several at a time.
    */
  def walk(g: CSRGraph, s: Int, start: Int, alpha: Double, rng: SplittableRandom): Int = {
    var v = start
    while (rng.nextDouble() >= alpha) {
      val d = g.outDegree(v)
      v = if (d == 0) s else g.edges(g.offset(v) + rng.nextInt(d))
    }
    v
  }

  /** Plain Monte-Carlo Approx-SSPPR: the walk phase on the residue vector
    * e_s, i.e. W walks of weight 1/W from s, with W from Eq. (12).
    */
  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): PPRResult = {
    Common.requireArgs(g.n, s, alpha, eps = eps)
    val residue = new Array[Double](g.n)
    residue(s) = 1.0
    val w = Common.walkCount(g.n, eps)
    val init = PPRResult(new Array[Double](g.n), residue, new Stats)
    WalkPhase.run(g, s, init, w, alpha, seed, index = null)
  }
}
