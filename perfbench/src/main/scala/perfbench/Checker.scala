package perfbench

/** Checks one answer against the reference π computed by `PowItr` at
  * λ = 1e-12. It does its own arithmetic and calls nothing in `repro.core`,
  * so a defect in the code being timed cannot hide in the check. Every
  * comparison is written so that NaN fails it.
  */
object Checker {

  /** Error the reference itself may carry: PowItr stops at Σr ≤ 1e-12. */
  val RefError: Double = 1e-12

  /** SpeedPPR answers are whole distributions: Σπ̂ must be 1 within this. */
  val MassTolerance: Double = 1e-9

  /** `failure` is null when the answer passes. `relErr` is the worst
    * relative error over the nodes with ref ≥ 1/n.
    */
  final case class Verdict(l1: Double, relErr: Double, failure: String) {
    def ok: Boolean = failure == null
  }

  def l1(a: Array[Double], b: Array[Double]): Double = {
    var t = 0.0; var i = 0
    while (i < a.length) { t += math.abs(a(i) - b(i)); i += 1 }
    t
  }

  /** High precision: ℓ1(π̂, ref) ≤ λ + the reference's own error. */
  def highPrecision(pi: Array[Double], ref: Array[Double], lambda: Double): Verdict = {
    if (pi.length != ref.length) return Verdict(Double.NaN, Double.NaN, s"length ${pi.length} != ${ref.length}")
    val d = l1(pi, ref)
    Verdict(d, Double.NaN, if (d <= lambda + RefError) null else s"l1 $d > lambda $lambda")
  }

  /** Approximate: Σπ̂ = 1 within 1e-9, π̂ ≥ 0, and |π̂(v) − ref(v)| ≤ ε·ref(v)
    * on every v with ref(v) ≥ 1/n (the paper's guarantee).
    */
  def approx(pi: Array[Double], ref: Array[Double], eps: Double): Verdict = {
    val n = ref.length
    if (pi.length != n) return Verdict(Double.NaN, Double.NaN, s"length ${pi.length} != $n")
    var sum = 0.0; var worst = 0.0; var worstAt = -1; var negAt = -1
    var v = 0
    while (v < n) {
      val p = pi(v)
      sum += p
      if (!(p >= 0.0) && negAt < 0) negAt = v
      if (ref(v) >= 1.0 / n) {
        val e = math.abs(p - ref(v)) / ref(v)
        if (!(e <= worst)) { worst = e; worstAt = v }
      }
      v += 1
    }
    val d = l1(pi, ref)
    val failure =
      if (!(math.abs(sum - 1.0) <= MassTolerance)) s"mass: sum(pi) = $sum"
      else if (negAt >= 0) s"negative: pi($negAt) = ${pi(negAt)}"
      else if (!(worst <= eps)) s"relerr: node $worstAt off by $worst > eps $eps"
      else null
    Verdict(d, worst, failure)
  }

  /** Shows that the check can fail. The reference passes; a copy with
    * residue mass missing fails; for ε workloads, a copy moved by 1.01·ε on
    * the smallest node with ref ≥ 1/n fails while Σ stays 1, and one moved
    * by 0.99·ε passes. Returns how the checker misbehaved, or null.
    */
  def selfTest(ref: Array[Double], s: Int, lambda: Double, eps: Double): String = {
    def check(pi: Array[Double]) =
      if (eps.isNaN) highPrecision(pi, ref, lambda) else approx(pi, ref, eps)
    def tampered(f: Array[Double] => Unit) = { val c = ref.clone(); f(c); c }
    if (!check(ref).ok) return s"rejects the reference itself: ${check(ref).failure}"
    val missing = if (eps.isNaN) 2 * lambda + 2 * RefError else 1e3 * MassTolerance
    if (check(tampered(_(s) -= missing)).ok) return s"accepts an answer with $missing of mass missing"
    if (!eps.isNaN) {
      val n = ref.length
      val a = ref.indices.filter(v => v != s && ref(v) >= 1.0 / n).minBy(ref(_))
      def moved(f: Double) = tampered { c => val d = f * eps * ref(a); c(a) += d; c(s) -= d }
      val over = check(moved(1.01))
      if (over.ok || !over.failure.startsWith("relerr")) return s"misses node $a off by 1.01 eps: $over"
      if (!check(moved(0.99)).ok) return s"rejects node $a off by 0.99 eps"
    }
    null
  }
}
