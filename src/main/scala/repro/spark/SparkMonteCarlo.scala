package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.core.Common

/** Distributed α-random walks as iterative dataflow, and the one
  * residue-seeded walk phase (Eq. 13–14) of the Spark layer.
  *
  * Walks are rows (cur, weight); each step every walk stops with probability
  * α or moves to a uniformly random out-neighbor (dead ends jump back to the
  * query source, §2). The per-walk weight lets the same engine serve plain
  * Monte-Carlo (weight 1/W) and SpeedPPR's phase 2 (weight r(s,v)/W_v).
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
    * Each step draws both coins and checkpoints the draws lazily; the walks
    * that stop are set aside, and only the rest move on, are checkpointed
    * lazily and counted. The count, the step's one action, materialises both
    * checkpoints. One `groupBy` at the end sums the stopped walks' weights.
    * P(alive after k) = (1−α)^k, so [[MaxSteps]] = 200 steps leave ~1e-20
    * unstopped mass; any survivors are credited to their current node and
    * the truncation is logged.
    */
  def walkEndpoints(spark: SparkSession, adj: DataFrame, starts: DataFrame,
                    s: Long, alpha: Double, seed: Long): DataFrame = {
    var walks = starts
      .select(col("start").cast("long").as("cur"), col("weight").cast("double").as("weight"))
    var stopped = List.empty[DataFrame]
    var step = 0
    var alive = 0L
    do {
      val drawn = walks
        .select(col("cur"), col("weight"),
          rand(seed + step).as("stopDraw"), rand(seed + 7919 + step).as("moveDraw"))
        .localCheckpoint(false)
      stopped ::= drawn.where(col("stopDraw") < alpha).select("cur", "weight")
      walks = drawn.where(col("stopDraw") >= alpha)
        .join(adj, col("cur") === col("id"), "left")
        .select(
          when(col("deg") === 0L, lit(s))
            .otherwise(element_at(col("nbrs"), (col("moveDraw") * col("deg")).cast("int") + 1))
            .as("cur"),
          col("weight"),
        )
        .localCheckpoint(false)
      alive = walks.count()
      step += 1
    } while (alive > 0 && step < MaxSteps)
    if (alive > 0)
      Console.err.println(s"[SparkMonteCarlo] $alive walks truncated at $MaxSteps steps")
    // An RDD union: a Dataset union would compile one codegen stage per step.
    spark.createDataFrame(spark.sparkContext.union((walks :: stopped).map(_.rdd)), walks.schema)
      .coalesce(spark.sparkContext.defaultParallelism)
      .groupBy(col("cur").as("id")).agg(sum(col("weight")).as("pi"))
  }

  /** The walk phase on a push state (id, …, pi, r): every node v with r > 0
    * issues W_v = ⌈r·W⌉ walks of weight r/W_v. The walks are spread over
    * the session's default parallelism, so the W walks of a single source
    * do not run as one task.
    *
    * @return (id, pi) for every node of `state`: π plus the stopped walks'
    *         weights
    */
  def walkPhase(spark: SparkSession, edges: DataFrame, n: Long, s: Long, state: DataFrame,
                w: Long, alpha: Double, seed: Long): DataFrame = {
    val starts = state
      .where(col("r") > 0.0)
      .withColumn("wv", ceil(col("r") * w).cast("long"))
      .select(col("id").as("start"), (col("r") / col("wv")).as("weight"),
        explode(sequence(lit(1L), col("wv"))))
      .repartition(spark.sparkContext.defaultParallelism)
    val adj = adjacency(spark, edges, n).persist(StorageLevel.MEMORY_AND_DISK)
    val walkPi = walkEndpoints(spark, adj, starts, s, alpha, seed)
    adj.unpersist()
    state
      .join(walkPi.withColumnRenamed("pi", "walkPi"), Seq("id"), "left")
      .select(col("id"), (col("pi") + coalesce(col("walkPi"), lit(0.0))).as("pi"))
  }

  /** Plain distributed Monte-Carlo Approx-SSPPR (§6.1): the walk phase on
    * e_s, i.e. W walks of weight 1/W from s, with W from Eq. (12).
    */
  def run(spark: SparkSession, edges: DataFrame, n: Long, s: Long, eps: Double,
          alpha: Double = 0.2, seed: Long = 1L): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, eps = eps)
    walkPhase(spark, edges, n, s, SparkPPR.initState(spark, edges, n, s),
      Common.walkCount(n.toInt, eps, 1.0 / n), alpha, seed)
  }
}
