package repro.core

/** Counters shared by all SSPPR solvers.
  *
  * `edgePushes` is the paper's "number of residue updates" (Figure 6): a push
  * on node v costs d_v updates (1 for a dead end, whose whole residue moves to
  * the source). `pushOps` counts push operations; `iterations` counts
  * synchronous sweeps (0 for purely queue-driven runs).
  */
final class Stats {
  var edgePushes: Long = 0L
  var pushOps: Long = 0L
  var iterations: Int = 0
  override def toString: String =
    s"Stats(edgePushes=$edgePushes, pushOps=$pushOps, iterations=$iterations)"
}

/** Result of a single-source PPR computation.
  *
  * @param pi      estimate π̂(s, ·); an underestimate for push/power methods
  * @param residue remaining residue r(s, ·) (all zeros for Monte-Carlo methods)
  * @param stats   work counters
  */
final case class PPRResult(pi: Array[Double], residue: Array[Double], stats: Stats) {
  def l1Residue: Double = Common.sum(residue)
  def l1Pi: Double = Common.sum(pi)
}

/** Optional convergence trace: (cumulative edge pushes, current ℓ1 residue).
  * Used by the Figure-6-style bench; solvers call `record` at checkpoints.
  */
final class Trace {
  val points = scala.collection.mutable.ArrayBuffer.empty[(Long, Double)]
  def record(edgePushes: Long, rsum: Double): Unit = points += ((edgePushes, rsum))
}

object Common {
  /** Default teleport probability used throughout the paper. */
  val DefaultAlpha: Double = 0.2

  /** Residues below this are treated as zero in activity checks. A dead end
    * has activity threshold d_v·r_max = 0, and multiplying the smallest
    * denormal by (1−α) rounds back to itself — without this floor a
    * dead-end's residue never reaches 0 and push loops livelock.
    */
  val TinyResidue: Double = 1e-300

  /** Activity test of the paper (r > d_v·r_max) with the denormal floor. */
  @inline def isActive(r: Double, deg: Int, rMax: Double): Boolean =
    r > TinyResidue && r > deg * rMax

  /** Fails fast, naming the argument, on a query outside the solvers'
    * domain: 0 ≤ s < n, 0 < α < 1, λ > 0, 0 < ε < 1 and r_max > 0. A solver
    * without λ, ε or r_max leaves that parameter at its (valid) default.
    */
  def requireArgs(n: Int, s: Int, alpha: Double,
                  lambda: Double = 1.0, eps: Double = 0.5, rMax: Double = 1.0): Unit = {
    require(s >= 0 && s < n, s"source s = $s is outside [0, $n)")
    requireAlpha(alpha)
    require(lambda > 0.0, s"lambda = $lambda is not > 0")
    require(eps > 0.0 && eps < 1.0, s"eps = $eps is outside (0, 1)")
    require(rMax > 0.0, s"r_max = $rMax is not > 0")
  }

  /** [[requireArgs]]' α check alone, for the entries that take no source:
    * the index builders, whose walks at α = 0 never stop.
    */
  def requireAlpha(alpha: Double): Unit =
    require(alpha > 0.0 && alpha < 1.0, s"alpha = $alpha is outside (0, 1)")

  /** High-precision ℓ1 threshold: λ = min(1/m, 1e-8) (§8.1). */
  def defaultLambda(m: Long): Double = math.min(1.0 / m, 1e-8)

  /** Left-to-right sum of an array. Every full-array Σπ and Σr of the
    * solvers uses it, so one array sums to the same bits everywhere.
    */
  def sum(a: Array[Double]): Double = {
    var t = 0.0; var i = 0
    while (i < a.length) { t += a(i); i += 1 }
    t
  }

  /** ℓ1 distance between two vectors. */
  def l1Diff(a: Array[Double], b: Array[Double]): Double = {
    require(a.length == b.length)
    var t = 0.0; var i = 0
    while (i < a.length) { t += math.abs(a(i) - b(i)); i += 1 }
    t
  }

  /** Gaussian elimination with partial pivoting, in place on `a` and `b`;
    * returns x with Ax = b. The one dense solver: `ExactPPR`'s ground truth
    * and BePI-lite's Schur-complement solve.
    */
  def gaussianSolve(a: Array[Array[Double]], b: Array[Double]): Array[Double] = {
    val n = b.length
    var col = 0
    while (col < n) {
      var piv = col
      var best = math.abs(a(col)(col))
      var r = col + 1
      while (r < n) {
        val v = math.abs(a(r)(col))
        if (v > best) { best = v; piv = r }
        r += 1
      }
      require(best > 1e-14, s"singular system at column $col")
      if (piv != col) {
        val tmpRow = a(piv); a(piv) = a(col); a(col) = tmpRow
        val tmpB = b(piv); b(piv) = b(col); b(col) = tmpB
      }
      r = col + 1
      while (r < n) {
        val factor = a(r)(col) / a(col)(col)
        if (factor != 0.0) {
          var c = col
          while (c < n) { a(r)(c) -= factor * a(col)(c); c += 1 }
          b(r) -= factor * b(col)
        }
        r += 1
      }
      col += 1
    }
    // Back substitution.
    val x = new Array[Double](n)
    var row = n - 1
    while (row >= 0) {
      var sum = b(row)
      var c = row + 1
      while (c < n) { sum -= a(row)(c) * x(c); c += 1 }
      x(row) = sum / a(row)(row)
      row -= 1
    }
    x
  }

  /** Chernoff walk count W from Eq. (12), with μ = 1/n by convention. */
  def walkCountW(n: Int, eps: Double, mu: Double): Double =
    2.0 * (2.0 * eps / 3.0 + 2.0) * math.log(n) / (eps * eps * mu)

  /** The number of walks the solvers issue: ⌈W⌉ at μ = 1/n, but at least 1,
    * since W = 0 on a one-node graph (ln 1 = 0) would leave the residue
    * unspent.
    */
  def walkCount(n: Int, eps: Double): Long =
    math.max(1L, math.ceil(walkCountW(n, eps, 1.0 / n)).toLong)
}
