package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{Common, PPRResult, Stats, WalkPhase}

/** Distributed SpeedPPR (Algorithm 4): SparkPPR.powerPush with λ = max(m, 1)/W
  * and its refinement to r_max = 1/W, in one superstep loop, then the walk
  * phase (Eq. 13–14) on the driver: the pushed state and the CSR are
  * collected, and core [[WalkPhase.run]] has each node v seed
  * W_v = ⌈r·W⌉ ≤ d_v walks of weight r/W_v (the FORA estimator). So a seed
  * gives the same bits on any core count, and the graph and the state must
  * fit in the driver's memory.
  */
object SparkSpeedPPR {

  /** @return DataFrame(id, pi) — the Approx-SSPPR estimate. */
  def run(spark: SparkSession, edges: DataFrame, n: Long, m: Long, s: Long,
          eps: Double, alpha: Double = Common.DefaultAlpha, seed: Long = 1L): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, eps = eps)
    val w = Common.walkCount(n.toInt, eps)
    val pushed = SparkPPR.powerPush(spark, edges, n, s, math.max(m, 1L).toDouble / w, m, alpha,
      refineRMax = 1.0 / w)
    val g = SparkGraph.fromDataFrame(edges, n.toInt)
    val pi = new Array[Double](g.n)
    val r = new Array[Double](g.n)
    pushed.select(col("id").cast("int"), col("pi"), col("r")).collect().foreach { row =>
      pi(row.getInt(0)) = row.getDouble(1)
      r(row.getInt(0)) = row.getDouble(2)
    }
    WalkPhase.run(g, s.toInt, PPRResult(pi, r, new Stats), w, alpha, seed, index = null)
    import spark.implicits._
    pi.indices.map(v => (v.toLong, pi(v))).toDF("id", "pi")
  }
}
