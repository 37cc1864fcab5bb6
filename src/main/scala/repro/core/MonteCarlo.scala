package repro.core

import java.util.Random
import repro.graph.CSRGraph

/** α-random-walk engine and the plain Monte-Carlo Approx-SSPPR baseline
  * (§6.1): W independent walks from s; π̂(s,v) = f(s,v)/W.
  */
object MonteCarlo {

  /** Walk one α-random walk and return the node it stops at.
    *
    * Semantics per §2: at the current node, stop with probability α; else
    * move uniformly to an out-neighbor, or jump back to the *query source* s
    * at a dead end. `start` may differ from `s` (FORA/SpeedPPR phase 2).
    */
  def walk(g: CSRGraph, s: Int, start: Int, alpha: Double, rng: Random): Int = {
    var v = start
    while (rng.nextDouble() >= alpha) {
      val d = g.outDegree(v)
      v = if (d == 0) s else g.edges(g.offset(v) + rng.nextInt(d))
    }
    v
  }

  /** Walk counter for cost accounting: same as [[walk]] but also counts steps. */
  def walkCounted(g: CSRGraph, s: Int, start: Int, alpha: Double,
                  rng: Random, steps: Array[Long]): Int = {
    var v = start
    while (rng.nextDouble() >= alpha) {
      val d = g.outDegree(v)
      v = if (d == 0) s else g.edges(g.offset(v) + rng.nextInt(d))
      steps(0) += 1
    }
    v
  }

  /** Plain Monte-Carlo Approx-SSPPR: W from Eq. (12) with μ = 1/n. */
  def run(g: CSRGraph, s: Int, eps: Double,
          alpha: Double = Common.DefaultAlpha, mu: Double = Double.NaN,
          seed: Long = 1L): PPRResult = {
    val n = g.n
    val muEff = if (mu.isNaN) 1.0 / n else mu
    val w = math.ceil(Common.walkCountW(n, eps, muEff)).toLong
    val rng = new Random(seed)
    val pi = new Array[Double](n)
    val inc = 1.0 / w
    var i = 0L
    val stats = new Stats
    val steps = new Array[Long](1)
    while (i < w) {
      pi(walkCounted(g, s, s, alpha, rng, steps)) += inc
      i += 1
    }
    stats.edgePushes = steps(0) // walk steps are the unit of work here
    stats.pushOps = w
    PPRResult(pi, new Array[Double](n), stats)
  }
}
