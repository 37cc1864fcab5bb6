package repro.core

import repro.graph.CSRGraph

/** BePI-lite — our substitute for BePI [Jung et al., SIGMOD 2017], the
  * closed-source (MATLAB P-code) indexed high-precision comparator.
  *
  * Faithful to BePI's design: the linear system (I − (1−α)·P₀ᵀ)·x = α·e_s is
  * block-partitioned by removing a small set of high-degree *hub* nodes; the
  * large *spoke* block A11 is solved iteratively (power-iteration style, as
  * BePI does, avoiding O(n³) inversion) and the dense Schur complement
  * S = A22 − A21·A11⁻¹·A12 over the hubs is **precomputed** as the index —
  * one spoke solve per hub column, which is what makes BePI's preprocessing
  * heavy and its index grow with graph density (the Table 2 / Orkut effect).
  *
  * Dead ends: P₀ is the substochastic transition matrix with zero rows for
  * dead ends (making the system source-independent and hence precomputable);
  * the solution is rescaled to the paper's dead-end→source semantics via
  * π = x/‖x‖₁ (a leaked walk restarts from s, so π = x + (1−‖x‖₁)·π).
  *
  * Stopping criterion matches the paper's BePI setup (§8.1): iterate until
  * the ℓ2 distance between consecutive iterates is ≤ Δ.
  */
object BePILite {

  /** Precomputed index: hub selection, Schur complement, and size/time
    * accounting for Table 2.
    */
  final class Index(
      val g: CSRGraph,
      val alpha: Double,
      val delta: Double,
      val hubs: Array[Int],          // global ids of hub nodes
      val hubIdx: Array[Int],        // global id -> hub position, or -1
      val schur: Array[Array[Double]], // dense h×h Schur complement
      val buildMillis: Long,
  ) {
    def h: Int = hubs.length

    /** Index footprint: dense Schur block + hub bookkeeping + the cross
      * blocks A12/A21 (kept implicitly via the graph, counted as the edges
      * incident to hubs, 12 bytes per stored sparse entry as (row, col, val)).
      */
    lazy val sizeBytes: Long = {
      var cross = 0L
      var v = 0
      while (v < g.n) {
        val vIsHub = hubIdx(v) >= 0
        g.foreachOut(v)(u => if (vIsHub != (hubIdx(u) >= 0)) cross += 1)
        v += 1
      }
      8L * h * h + 12L * cross + 8L * h
    }
  }

  /** Build the index: pick `hubCount` top-(in+out)-degree hubs, then compute
    * the dense Schur complement with one iterative spoke solve per hub.
    */
  def preprocess(g: CSRGraph, hubCount: Int,
                 alpha: Double = Common.DefaultAlpha,
                 delta: Double = Double.NaN): Index = {
    Common.requireAlpha(alpha)
    require(delta.isNaN || delta > 0.0, s"delta = $delta is not > 0")
    val t0 = System.nanoTime()
    val n = g.n
    val dEff = if (delta.isNaN) math.min(1.0 / g.m, 1e-8) else delta
    val inDeg = new Array[Int](n)
    var v = 0
    while (v < n) { g.foreachOut(v)(u => inDeg(u) += 1); v += 1 }
    val hubs = (0 until n).sortBy(v => -(inDeg(v).toLong + g.outDegree(v))).take(math.min(hubCount, n / 2)).toArray
    val hubIdx = Array.fill(n)(-1)
    hubs.zipWithIndex.foreach { case (hv, i) => hubIdx(hv) = i }
    val h = hubs.length

    // Schur S = A22 − A21·A11⁻¹·A12, assembled column by hub column.
    val schur = Array.fill(h)(new Array[Double](h)) // schur(row)(col)
    val col = new Array[Double](n)                  // dense work vectors
    val sj = new Array[Double](h)                   // S[:,j]
    var j = 0
    while (j < h) {
      val hj = hubs(j)
      // Column hj of A = I − (1−α)P₀ᵀ: diagonal 1 at hj, and −(1−α)/d_hj at
      // each out-neighbor row of hj.
      java.util.Arrays.fill(col, 0.0)
      val dj = g.outDegree(hj)
      if (dj > 0) {
        val w = (1.0 - alpha) / dj
        g.foreachOut(hj)(u => col(u) -= w)
      }
      // Split: spoke rows form A12[:,j] (to be hit with A11⁻¹), hub rows
      // (plus the diagonal 1) form A22[:,j].
      java.util.Arrays.fill(sj, 0.0)
      sj(j) = 1.0
      v = 0
      while (v < n) {
        if (hubIdx(v) >= 0 && col(v) != 0.0) { sj(hubIdx(v)) += col(v); col(v) = 0.0 }
        v += 1
      }
      // y = A11⁻¹ · A12[:,j]  (col now holds only spoke rows)
      val y = solveSpoke(g, hubIdx, col, alpha, dEff, null)
      // S[:,j] = A22[:,j] − A21·y
      subtractA21(g, hubIdx, y, alpha, sj)
      var i = 0
      while (i < h) { schur(i)(j) = sj(i); i += 1 }
      j += 1
    }
    new Index(g, alpha, dEff, hubs, hubIdx, schur,
              (System.nanoTime() - t0) / 1000000L)
  }

  /** out −= A21·y, with A21[i,v] = −(1−α)/d_v for each edge spoke v → hub_i;
    * `out` is indexed by hub position.
    */
  private def subtractA21(g: CSRGraph, hubIdx: Array[Int], y: Array[Double], alpha: Double,
                          out: Array[Double]): Unit = {
    var v = 0
    while (v < g.n) {
      if (hubIdx(v) < 0 && y(v) != 0.0) {
        val d = g.outDegree(v)
        if (d > 0) {
          val w = (1.0 - alpha) * y(v) / d
          g.foreachOut(v)(u => if (hubIdx(u) >= 0) out(hubIdx(u)) += w)
        }
      }
      v += 1
    }
  }

  private val MaxIterations = 10000 // the step shrinks like (1 − α)^k: k ≈ 124 reaches 1e-12 at α = 0.2

  /** Iterative solve of A11·y = b over the spoke block (hub entries of b must
    * be zero): Neumann series y ← b + (1−α)·P₁₁ᵀ·y until the consecutive-
    * iterate ℓ2 distance is ≤ delta. Returns y in global-id space. Throws
    * IllegalStateException if that takes more than [[MaxIterations]].
    */
  private def solveSpoke(g: CSRGraph, hubIdx: Array[Int], b: Array[Double],
                         alpha: Double, delta: Double, stats: Stats): Array[Double] = {
    val n = g.n
    var y = b.clone()
    var next = new Array[Double](n)
    var dist = Double.MaxValue
    var iters = 0
    while (dist > delta) {
      if (iters == MaxIterations)
        throw new IllegalStateException(s"BePI-lite spoke solve: no convergence after $iters " +
          s"iterations: step = $dist > delta = $delta")
      System.arraycopy(b, 0, next, 0, n)
      var v = 0
      while (v < n) {
        val yv = y(v)
        if (yv != 0.0 && hubIdx(v) < 0) {
          val d = g.outDegree(v)
          if (d > 0) {
            val share = (1.0 - alpha) * yv / d
            g.foreachOut(v)(u => if (hubIdx(u) < 0) next(u) += share)
            if (stats != null) stats.edgePushes += d
          }
        }
        v += 1
      }
      dist = 0.0
      var i = 0
      while (i < n) { val dd = next(i) - y(i); dist += dd * dd; i += 1 }
      dist = math.sqrt(dist)
      val tmp = y; y = next; next = tmp
      iters += 1
      if (stats != null) stats.iterations += 1
    }
    y
  }

  /** Answer one SSPPR query with the precomputed index (block elimination +
    * back substitution). Returns π normalized to ‖π‖₁ = 1.
    */
  def query(index: Index, s: Int): PPRResult = {
    Common.requireArgs(index.g.n, s, index.alpha)
    val g = index.g
    val n = g.n
    val h = index.h
    val alpha = index.alpha
    val stats = new Stats
    val b1 = new Array[Double](n)
    val rhs2 = new Array[Double](h) // b2, then b2 − A21·z
    if (index.hubIdx(s) >= 0) rhs2(index.hubIdx(s)) = alpha else b1(s) = alpha

    // z = A11⁻¹ b1
    val z = solveSpoke(g, index.hubIdx, b1, alpha, index.delta, stats)
    subtractA21(g, index.hubIdx, z, alpha, rhs2)
    // x2 = S⁻¹ rhs2 (dense, h ≤ a few hundred)
    val x2 = Common.gaussianSolve(index.schur.map(_.clone()), rhs2)
    // x1 = A11⁻¹ (b1 − A12·x2)
    val w1 = b1.clone()
    var i = 0
    while (i < h) {
      val hv = index.hubs(i)
      val d = g.outDegree(hv)
      if (d > 0 && x2(i) != 0.0) {
        val w = (1.0 - alpha) * x2(i) / d
        g.foreachOut(hv)(u => if (index.hubIdx(u) < 0) w1(u) += w)
      }
      i += 1
    }
    val x1 = solveSpoke(g, index.hubIdx, w1, alpha, index.delta, stats)
    // Assemble and rescale for the dead-end→source semantics.
    val x = x1
    i = 0
    while (i < h) { x(index.hubs(i)) = x2(i); i += 1 }
    val sum = Common.sum(x)
    require(sum > 0.0, "BePILite produced a non-positive solution mass")
    var v = 0
    while (v < n) { x(v) /= sum; v += 1 }
    PPRResult(x, new Array[Double](n), stats)
  }
}
