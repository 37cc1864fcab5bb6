package repro.graph

import repro.core.Common

/** Exact SSPPR via dense Gaussian elimination — test-only ground truth.
  *
  * Solves Equation (1) of the paper, π_s = α·e_s + (1−α)·π_s·P, i.e. the
  * linear system (I − (1−α)·Pᵀ)·π_sᵀ = α·e_sᵀ, with partial pivoting.
  * The transition-matrix row of a dead-end node is e_s (the paper's
  * conceptual dead-end→source edge), so P — and hence π — depends on s.
  *
  * O(n³): only for graphs with n up to a few hundred. Used to ground-truth
  * every approximate/iterative algorithm in the test suites.
  */
object ExactPPR {

  /** Exact PPR vector π_s, with ‖π_s‖₁ = 1 (up to float error). */
  def solve(g: CSRGraph, s: Int, alpha: Double = Common.DefaultAlpha): Array[Double] = {
    val n = g.n
    require(n <= 2000, s"ExactPPR is dense O(n^3); n=$n too large")
    Common.requireArgs(n, s, alpha)
    // A = I − (1−α)·Pᵀ  (column v of Pᵀ is the out-distribution of v)
    val a = Array.fill(n)(new Array[Double](n))
    var v = 0
    while (v < n) {
      a(v)(v) += 1.0
      val d = g.outDegree(v)
      if (d == 0) {
        a(s)(v) -= (1.0 - alpha) // dead end: all mass returns to the source
      } else {
        val p = (1.0 - alpha) / d
        g.foreachOut(v)(u => a(u)(v) -= p)
      }
      v += 1
    }
    val b = new Array[Double](n)
    b(s) = alpha
    Common.gaussianSolve(a, b)
  }
}
