package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Common

/** Distributed SpeedPPR (Algorithm 4): SparkPPR.powerPush with λ = max(m, 1)/W
  * and its refinement to r_max = 1/W, in one superstep loop, then
  * [[SparkMonteCarlo.walkPhase]] on the leftover residues: each node v seeds
  * W_v = ⌈r·W⌉ ≤ d_v walks of weight r/W_v (Eq. 13 with the FORA estimator).
  */
object SparkSpeedPPR {

  /** @return DataFrame(id, pi) — the Approx-SSPPR estimate. */
  def run(spark: SparkSession, edges: DataFrame, n: Long, m: Long, s: Long,
          eps: Double, alpha: Double = Common.DefaultAlpha, seed: Long = 1L): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, eps = eps)
    val w = Common.walkCount(n.toInt, eps)
    val pushed = SparkPPR.powerPush(spark, edges, n, s, math.max(m, 1L).toDouble / w, m, alpha,
      refineRMax = 1.0 / w)
    SparkMonteCarlo.walkPhase(spark, edges, n, s, pushed, w, alpha, seed)
  }
}
