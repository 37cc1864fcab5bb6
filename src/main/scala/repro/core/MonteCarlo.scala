package repro.core

import java.util.SplittableRandom
import repro.graph.CSRGraph

/** The α-random walk's step rule and walk segment, and the plain Monte-Carlo
  * Approx-SSPPR baseline (§6.1): W independent walks from s; π̂(s,v) = f(s,v)/W.
  */
object MonteCarlo {

  /** The α-coin as a threshold on 32 bits: a step whose draw `x` has
    * `stops(x, stopThreshold(α))` ends the walk. The threshold is ⌈α·2^32⌉,
    * so P(stop) ∈ [α, α + 2^-32), and every α > 0 stops with positive
    * probability.
    */
  def stopThreshold(alpha: Double): Long = math.ceil(alpha * 4294967296.0).toLong

  /** Whether the step with 64-bit draw `x` stops: its high 32 bits fall below
    * `threshold`. The low 32 bits are left for [[pick]].
    */
  @inline def stops(x: Long, threshold: Long): Boolean = (x >>> 32) < threshold

  /** An exactly uniform pick in [0, d), d ≥ 1, from the low 32 bits of the
    * step's draw `x`, by Lemire's multiply-shift ("Fast Random Integer
    * Generation in an Interval", ACM TOMACS 2019). With x its low 32 bits,
    * the pick is the high half of x·d. A draw whose low half of x·d falls
    * below 2^32 mod d is rejected, which leaves exactly ⌊2^32/d⌋ values of x
    * per pick, and is replaced by 32 fresh bits from `rng`. Since
    * 2^32 mod d < d, the division runs only when the low half is below d,
    * with probability d/2^32.
    */
  @inline def pick(x: Long, d: Int, rng: SplittableRandom): Int = {
    var m = (x & 0xFFFFFFFFL) * d
    if ((m & 0xFFFFFFFFL) < d) {
      val reject = 0x100000000L % d
      while ((m & 0xFFFFFFFFL) < reject) m = (rng.nextInt() & 0xFFFFFFFFL) * d
    }
    (m >>> 32).toInt
  }

  /** One segment of an α-random walk from `start`, with `threshold` =
    * [[stopThreshold]](α): returns the node the walk stops at, or the marker
    * `~v` if it leaves a dead end v without stopping, since where it goes on
    * depends on the query source. Each step takes one `rng.nextLong()`, read
    * by [[stops]] and [[pick]]; [[WalkPhase]] steps its walks with the same
    * two, and [[WalkIndex]] stores these results.
    */
  def walkSegment(g: CSRGraph, start: Int, threshold: Long, rng: SplittableRandom): Int = {
    var v = start
    while (true) {
      val x = rng.nextLong()
      if (stops(x, threshold)) return v
      val d = g.outDegree(v)
      if (d == 0) return ~v
      v = g.edges(g.offset(v) + pick(x, d, rng))
    }
    throw new IllegalStateException("unreachable")
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
