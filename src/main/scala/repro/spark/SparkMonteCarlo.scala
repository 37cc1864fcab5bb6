package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.Common

/** Distributed α-random walks as iterative dataflow.
  *
  * Walks are rows (start, weight, cur, stopped); each superstep every alive
  * walk stops with probability α or moves to a uniformly random out-neighbor
  * (dead ends jump back to the query source, §2). The per-walk weight lets
  * the same engine serve plain Monte-Carlo (weight 1/W) and the FORA/SpeedPPR
  * phase-2 seeding (weight r(s,v)/W_v).
  */
object SparkMonteCarlo {

  private val MaxSteps = 200

  /** Adjacency table: (id, deg, nbrs ARRAY<BIGINT>) for every node. */
  def adjacency(spark: SparkSession, edges: DataFrame, n: Long): DataFrame = {
    val adj = edges
      .groupBy(col("src").as("id"))
      .agg(collect_list(col("dst").cast("long")).as("nbrs"))
    spark.range(n).toDF("id")
      .join(adj, Seq("id"), "left")
      .select(
        col("id"),
        coalesce(size(col("nbrs")), lit(0)).cast("long").as("deg"),
        coalesce(col("nbrs"), array().cast("array<long>")).as("nbrs"),
      )
  }

  /** Run every walk in `starts` (columns: start LONG, weight DOUBLE) to its
    * stop node; returns (id, pi) = per-node summed weights of stopping walks.
    * Each step is checkpointed lazily and materialised by the alive count.
    * P(alive after k) = (1−α)^k, so [[MaxSteps]] = 200 steps leave ~1e-20
    * unstopped mass; any survivors are credited to their current node and
    * the truncation is logged.
    */
  def walkEndpoints(spark: SparkSession, adj: DataFrame, starts: DataFrame,
                    s: Long, alpha: Double, seed: Long): DataFrame = {
    var walks = starts
      .select(col("start").cast("long").as("cur"), col("weight").cast("double").as("weight"))
      .withColumn("stopped", lit(false))
      .localCheckpoint(false)
    var step = 0
    var alive = walks.where(!col("stopped")).count()
    while (alive > 0 && step < MaxSteps) {
      // Draw both randoms in their own projection first: CollapseProject
      // skips nondeterministic projections, so each is evaluated exactly
      // once per row and the stop decision stays consistent across columns.
      val withDraws = walks
        .join(adj, walks("cur") === adj("id"), "left")
        .withColumn("stopDraw", rand(seed + step))
        .withColumn("moveDraw", rand(seed + 7919 + step))
      val stepped = withDraws.select(
        when(col("stopped") || col("stopDraw") < alpha, col("cur"))
          .otherwise(
            when(col("deg") === 0L, lit(s))
              .otherwise(element_at(col("nbrs"),
                (col("moveDraw") * col("deg")).cast("int") + 1)))
          .as("cur"),
        col("weight"),
        (col("stopped") || col("stopDraw") < alpha).as("stopped"),
      )
      walks = stepped.localCheckpoint(false)
      alive = walks.where(!col("stopped")).count()
      step += 1
    }
    if (alive > 0)
      Console.err.println(s"[SparkMonteCarlo] $alive walks truncated at $MaxSteps steps")
    walks.groupBy(col("cur").as("id")).agg(sum(col("weight")).as("pi"))
  }

  /** Plain distributed Monte-Carlo Approx-SSPPR (§6.1), W from Eq. (12). */
  def run(spark: SparkSession, edges: DataFrame, n: Long, s: Long, eps: Double,
          alpha: Double = 0.2, seed: Long = 1L): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, eps = eps)
    val w = Common.walkCount(n.toInt, eps, 1.0 / n)
    val adj = adjacency(spark, edges, n).persist(StorageLevel.MEMORY_AND_DISK)
    val starts = spark.range(w).select(lit(s).as("start"), lit(1.0 / w).as("weight"))
    val out = walkEndpoints(spark, adj, starts, s, alpha, seed)
    val full = spark.range(n).toDF("id")
      .join(out, Seq("id"), "left")
      .select(col("id"), coalesce(col("pi"), lit(0.0)).as("pi"))
    adj.unpersist()
    full
  }
}
