package repro.spark

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Common, MonteCarlo}
import repro.graph.CSRGraph

/** The one residue-seeded walk phase (Eq. 13–14) of the Spark layer, and
  * distributed Monte-Carlo on it.
  *
  * The walks are independent and pass no messages, so they need no
  * supersteps: the CSR is broadcast once, and each task runs its walks with
  * core [[MonteCarlo.walk]], the reference walk rule (dead ends jump back to
  * the query source, §2). The per-walk weight lets the same phase serve
  * plain Monte-Carlo (weight 1/W) and SpeedPPR's phase 2 (weight r(s,v)/W_v).
  * The graph must fit in one executor's memory.
  */
object SparkMonteCarlo {

  /** The walk phase on a push state (id, …, pi, r): every node v with r > 0
    * issues W_v = ⌈r·W⌉ walks of weight r/W_v. The start rows are spread over
    * the session's default parallelism, so the W walks of a single source do
    * not run as one task. Partition p draws from the (p+1)-th `split()` of
    * `SplittableRandom(seed)`: seed + p, as Spark's `rand(seed)` seeds its
    * partitions, would give seeds s and s+1 the same stream in all but one
    * partition. One `groupBy` sums the weights per stop node;
    * materialising the sums is the phase's one action, and it also
    * materialises `state`'s lazy checkpoint, so `state` is computed once.
    * The broadcast is destroyed before this returns.
    *
    * @return (id, pi) for every node of `state`: π plus the stopped walks'
    *         weights
    */
  def walkPhase(spark: SparkSession, edges: DataFrame, n: Long, s: Long, stateIn: DataFrame,
                w: Long, alpha: Double, seed: Long): DataFrame = {
    val state = stateIn.localCheckpoint(false)
    val g = SparkGraph.fromDataFrame(edges, n.toInt)
    val sc = spark.sparkContext
    val csr = sc.broadcast((g.offset, g.edges))
    val walkPi = try {
      val stops = state
        .where(col("r") > 0.0)
        .withColumn("wv", ceil(col("r") * w).cast("long"))
        .select(col("id").cast("int"), (col("r") / col("wv")).as("weight"),
          explode(sequence(lit(1L), col("wv"))))
        .repartition(sc.defaultParallelism)
        .rdd
        .mapPartitionsWithIndex { (part, rows) =>
          val (offset, targets) = csr.value
          val local = new CSRGraph(n.toInt, offset, targets)
          val root = new SplittableRandom(seed)
          val rng = Iterator.continually(root.split()).drop(part).next()
          rows.map(row =>
            (MonteCarlo.walk(local, s.toInt, row.getInt(0), alpha, rng).toLong, row.getDouble(1)))
        }
      spark.createDataFrame(stops).toDF("id", "walkPi")
        .groupBy("id").agg(sum(col("walkPi")).as("walkPi"))
        .localCheckpoint(eager = true)
    } finally csr.destroy()
    state
      .join(walkPi, Seq("id"), "left")
      .select(col("id"), (col("pi") + coalesce(col("walkPi"), lit(0.0))).as("pi"))
  }

  /** Plain distributed Monte-Carlo Approx-SSPPR (§6.1): the walk phase on
    * e_s, i.e. W walks of weight 1/W from s, with W from Eq. (12).
    */
  def run(spark: SparkSession, edges: DataFrame, n: Long, s: Long, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, eps = eps)
    walkPhase(spark, edges, n, s, SparkPPR.initState(spark, edges, n, s),
      Common.walkCount(n.toInt, eps), alpha, seed)
  }
}
