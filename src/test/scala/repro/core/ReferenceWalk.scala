package repro.core

import java.util.SplittableRandom
import repro.graph.CSRGraph

/** One whole α-random walk, the reference the walk-phase tests sample from. */
object ReferenceWalk {

  /** Walk one α-random walk and return the node it stops at.
    *
    * Semantics per §2: at the current node, stop with probability α; else
    * move uniformly to an out-neighbor, or jump back to the *query source* s
    * at a dead end. `start` may differ from `s`.
    */
  def walk(g: CSRGraph, s: Int, start: Int, alpha: Double, rng: SplittableRandom): Int = {
    val threshold = MonteCarlo.stopThreshold(alpha)
    var v = MonteCarlo.walkSegment(g, start, threshold, rng)
    while (v < 0) v = MonteCarlo.walkSegment(g, s, threshold, rng)
    v
  }
}
