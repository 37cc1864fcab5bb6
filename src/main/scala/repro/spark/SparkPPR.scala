package repro.spark

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Common, PowerPush, PushKernel}

/** Distributed SSPPR as Catalyst dataflow.
  *
  * The paper's three high-precision algorithms share one bulk-synchronous
  * primitive: *push every node active w.r.t. a threshold r_max, all at once,
  * against the previous superstep's residues*. That is exactly the paper's
  * SimFwdPush / iteration structure S^(j) (§4), which it proves equivalent
  * to PowItr (Lemma 4.1); within-superstep asynchrony (the FIFO queue)
  * cannot be expressed in bulk-synchronous dataflow and is the documented
  * deviation (DESIGN.md §2).
  *
  *  - r_max = 0      → every node with residue pushes: distributed PowItr.
  *  - r_max = λ/m    → frontier forward push: distributed FIFO-FwdPush.
  *  - dynamic r_max  → distributed PowerPush (epoch schedule of §5).
  *
  * State: DataFrame(id LONG, deg LONG, pi DOUBLE, r DOUBLE), one row per
  * node. Dead ends (deg = 0) forward their (1−α) share to the query source.
  */
object SparkPPR {

  /** Initial state: residue 1 at the source, 0 elsewhere. */
  def initState(spark: SparkSession, edges: DataFrame, n: Long, s: Long): DataFrame = {
    val deg = edges.groupBy(col("src").as("id")).agg(count(lit(1)).as("deg"))
    spark.range(n).toDF("id")
      .join(deg, Seq("id"), "left")
      .select(
        col("id"),
        coalesce(col("deg"), lit(0L)).as("deg"),
        lit(0.0).as("pi"),
        when(col("id") === s, 1.0).otherwise(0.0).as("r"),
      )
  }

  /** One synchronous push superstep at threshold `rMax`.
    *
    * A node is active iff r > deg·r_max (a dead end hence iff r > 0, matching
    * the paper's convention). A dead end v ≠ s sends (1−α)·r to s as one more
    * message (§2's conceptual dead-end edge). An active dead-end source is
    * settled in closed form, π += r and r = 0: the limit of pushing it again
    * on the spot, as `PowerPush.sweep` does. No Spark action runs here.
    */
  def pushStep(state: DataFrame, edges: DataFrame, s: Long, alpha: Double,
               rMax: Double): DataFrame = {
    val active = activeAt(rMax)
    val pushing = state.where(active)
    val msgs = pushing
      .join(edges, col("id") === col("src"))
      .select(col("dst").cast("long").as("id"), (lit(1.0 - alpha) * col("r") / col("deg")).as("msg"))
      .union(pushing.where(col("deg") === 0L && col("id") =!= s)
        .select(lit(s).as("id"), (lit(1.0 - alpha) * col("r")).as("msg")))
      .groupBy("id").agg(sum(col("msg")).as("msg"))
    val piShare = when(col("id") === s && col("deg") === 0L, 1.0).otherwise(alpha)
    state
      .join(msgs, Seq("id"), "left")
      .select(
        col("id"),
        col("deg"),
        (col("pi") + when(active, piShare * col("r")).otherwise(0.0)).as("pi"),
        (when(active, 0.0).otherwise(col("r")) + coalesce(col("msg"), lit(0.0))).as("r"),
      )
  }

  /** Aggregate (Σr, #active at rMax) in one pass: the superstep's one Spark
    * action, which also materialises `state`'s lazy checkpoint.
    */
  def residueSummary(state: DataFrame, rMax: Double): (Double, Long) = {
    val row = state.agg(
      coalesce(sum(col("r")), lit(0.0)),
      coalesce(sum(when(activeAt(rMax), 1L).otherwise(0L)), lit(0L)),
    ).head()
    (row.getDouble(0), row.getLong(1))
  }

  private def activeAt(rMax: Double): Column =
    col("r") > greatest(col("deg").cast("double") * rMax, lit(Common.TinyResidue))

  private val MaxSupersteps = 500 // PowItr needs ~83 at λ = 1e-8, α = 0.2

  /** Distributed PowItr: full pushes (r_max = 0) until Σr ≤ λ. */
  def powItr(spark: SparkSession, edges: DataFrame, n: Long, s: Long,
             lambda: Double, alpha: Double = Common.DefaultAlpha): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, lambda = lambda)
    loop(initState(spark, edges, n, s), edges, s, alpha, rMax0 = 0.0) { (_, rsum) =>
      if (rsum <= lambda) None else Some(0.0)
    }
  }

  /** Distributed frontier FwdPush: [[refine]] from e_s at r_max = λ/m. */
  def fwdPush(spark: SparkSession, edges: DataFrame, n: Long, s: Long,
              rMax: Double, alpha: Double = Common.DefaultAlpha): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, rMax = rMax)
    refine(initState(spark, edges, n, s), edges, s, rMax, alpha)
  }

  /** Distributed PowerPush: core PowerPush's §5 epoch schedule of thresholds
    * r'_max = [[PowerPush.epochLambda]](λ, i)/m, finishing at λ/m.
    */
  def powerPush(spark: SparkSession, edges: DataFrame, n: Long, s: Long,
                lambda: Double, m: Long, alpha: Double = Common.DefaultAlpha): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, lambda = lambda)
    var epoch = 1
    loop(initState(spark, edges, n, s), edges, s, alpha, rMax0 = 0.0) { (_, rsum) =>
      var lamEpoch = PowerPush.epochLambda(lambda, epoch)
      while (epoch < PowerPush.EpochNum && rsum <= lamEpoch) {
        epoch += 1
        lamEpoch = PowerPush.epochLambda(lambda, epoch)
      }
      if (rsum <= lambda) None else Some(PushKernel.rMaxFor(lamEpoch, m))
    }
  }

  /** Continue pushing an *existing* state at a fixed threshold until no node
    * is active — the O(m) refinement of Lemma 4.5, used by SparkSpeedPPR to
    * enforce r(s,v) ≤ d_v·r_max with r_max = 1/W before the walk phase.
    */
  def refine(stateIn: DataFrame, edges: DataFrame, s: Long, rMax: Double,
             alpha: Double = Common.DefaultAlpha): DataFrame = {
    // No n here: the placeholder n = 1, s = 0 leaves only α and r_max checked.
    Common.requireArgs(1, 0, alpha, rMax = rMax)
    loop(stateIn, edges, s, alpha, rMax0 = rMax) { (nActive, _) =>
      if (nActive == 0L) None else Some(rMax)
    }
  }

  /** The one superstep loop. `next` inspects (#active at the last threshold,
    * Σr) and returns the next threshold, or None to stop. The first call sees
    * `stateIn`'s statistics at `rMax0`. Each state is checkpointed lazily and
    * materialised by its [[residueSummary]]. Throws IllegalStateException if
    * `next` still asks for a superstep after [[MaxSupersteps]].
    */
  private def loop(stateIn: DataFrame, edges: DataFrame, s: Long, alpha: Double,
                   rMax0: Double)
                  (next: (Long, Double) => Option[Double]): DataFrame = {
    var state = stateIn.localCheckpoint(false)
    var iter = 0
    var rMaxUsed = rMax0
    var continue = true
    while (continue) {
      val (rsum, nActive) = residueSummary(state, rMaxUsed)
      next(nActive, rsum) match {
        case None => continue = false
        case Some(_) if iter == MaxSupersteps =>
          throw new IllegalStateException(s"no convergence after $iter supersteps: " +
            s"sum of residues = $rsum, $nActive nodes active at r_max = $rMaxUsed")
        case Some(rMax) =>
          state = pushStep(state, edges, s, alpha, rMax).localCheckpoint(false)
          rMaxUsed = rMax
          iter += 1
      }
    }
    state
  }
}
