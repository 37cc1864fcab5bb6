package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.Common

/** Distributed SpeedPPR (Algorithm 4): SparkPPR.powerPush with λ = max(m, 1)/W,
  * refinement to r_max = 1/W, then the phase-2 walks — each node v with
  * leftover residue seeds W_v = ⌈r·W⌉ ≤ d_v walks of weight r/W_v, executed
  * by the SparkMonteCarlo engine.
  */
object SparkSpeedPPR {

  /** @return DataFrame(id, pi) — the Approx-SSPPR estimate. */
  def run(spark: SparkSession, edges: DataFrame, n: Long, m: Long, s: Long,
          eps: Double, alpha: Double = 0.2, seed: Long = 1L): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, eps = eps)
    val w = Common.walkCount(n.toInt, eps, 1.0 / n)
    val lambda = math.max(m, 1L).toDouble / w
    val pushed = SparkPPR.powerPush(spark, edges, n, s, lambda, m, alpha)
    val refined = SparkPPR.refine(pushed, edges, s, rMax = 1.0 / w, alpha = alpha)

    // Phase 2: one row per walk — v spawns W_v = ceil(r·W) walks, each of
    // weight r/W_v (Eq. 13 with the FORA estimator).
    val starts = refined
      .where(col("r") > 0.0)
      .withColumn("wv", ceil(col("r") * w).cast("long"))
      .select(
        col("id").as("start"),
        (col("r") / col("wv")).as("weight"),
        explode(sequence(lit(1L), col("wv"))).as("k"),
      )
      .drop("k")
    val adj = SparkMonteCarlo.adjacency(spark, edges, n).persist(StorageLevel.MEMORY_AND_DISK)
    val walkPi = SparkMonteCarlo.walkEndpoints(spark, adj, starts, s, alpha, seed)
    val out = refined
      .join(walkPi.withColumnRenamed("pi", "walkPi"), Seq("id"), "left")
      .select(col("id"), (col("pi") + coalesce(col("walkPi"), lit(0.0))).as("pi"))
      .localCheckpoint(true)
    adj.unpersist()
    out
  }
}
