package repro.spark

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{Common, PPRResult, Stats, WalkPhase}

/** The walk phase (Eq. 13–14) of the Spark layer, and distributed
  * Monte-Carlo on it. The walks run on the driver, in core
  * [[WalkPhase.run]], so a seed gives the local solvers' bits on any core
  * count. The graph and the state must fit in the driver's memory.
  */
object SparkMonteCarlo {

  /** The walk phase on a push state (id, …, pi, r): the state's (pi, r) rows
    * and the CSR are collected to the driver, and core [[WalkPhase.run]]
    * issues W_v = ⌈r·W⌉ walks of weight r/W_v from every node v with r > 0.
    *
    * @return (id, pi) for every node: π plus the stopped walks' weights
    */
  def walkPhase(spark: SparkSession, edges: DataFrame, n: Long, s: Long, state: DataFrame,
                w: Long, alpha: Double, seed: Long): DataFrame = {
    val g = SparkGraph.fromDataFrame(edges, n.toInt)
    val pi = new Array[Double](g.n)
    val r = new Array[Double](g.n)
    state.select(col("id").cast("int"), col("pi"), col("r")).collect().foreach { row =>
      pi(row.getInt(0)) = row.getDouble(1)
      r(row.getInt(0)) = row.getDouble(2)
    }
    WalkPhase.run(g, s.toInt, PPRResult(pi, r, new Stats), w, alpha, seed, index = null)
    import spark.implicits._
    pi.indices.map(v => (v.toLong, pi(v))).toDF("id", "pi")
  }

  /** Plain distributed Monte-Carlo Approx-SSPPR (§6.1): the walk phase on
    * e_s, i.e. W walks of weight 1/W from s, with W from Eq. (12).
    */
  def run(spark: SparkSession, edges: DataFrame, n: Long, s: Long, eps: Double,
          alpha: Double = Common.DefaultAlpha, seed: Long = 1L): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, eps = eps)
    walkPhase(spark, edges, n, s, SparkPPR.initState(spark, n, s),
      Common.walkCount(n.toInt, eps), alpha, seed)
  }
}
