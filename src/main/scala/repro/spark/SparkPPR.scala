package repro.spark

import java.math.BigDecimal
import scala.annotation.tailrec
import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Common, PowerPush, PushKernel}

/** Distributed SSPPR as Pregel-style message passing on RDDs.
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
  * Entries take and return DataFrame(id LONG, pi DOUBLE, r DOUBLE). Inside,
  * a vertex (id, (out-neighbours, pi, r)) holds its adjacency, vertices are
  * hash-partitioned once by `spark.sql.shuffle.partitions`, and each
  * destination sums its messages in ascending source order from 0.0, as
  * `SimFwdPush.step` does, so a superstep's bits do not depend on the partitioning.
  */
object SparkPPR {

  private type Vertex = (Array[Int], Double, Double) // (out-neighbours, pi, r)

  /** Initial state: residue 1 at the source, 0 elsewhere. */
  def initState(spark: SparkSession, n: Long, s: Long): DataFrame =
    spark.range(n).select(col("id"), lit(0.0).as("pi"), when(col("id") === s, 1.0).otherwise(0.0).as("r"))

  private val MaxSupersteps = 500 // PowItr needs ~83 at λ = 1e-8, α = 0.2

  /** Distributed PowItr: full pushes (r_max = 0) until Σr ≤ λ. */
  def powItr(spark: SparkSession, edges: DataFrame, n: Long, s: Long,
             lambda: Double, alpha: Double = Common.DefaultAlpha): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, lambda = lambda)
    loop(initState(spark, n, s), edges, s, alpha, rMax0 = 0.0) { (_, rsum) =>
      if (rsum <= lambda) None else Some(0.0)
    }
  }

  /** Distributed frontier FwdPush: [[refine]] from e_s at r_max = λ/m. */
  def fwdPush(spark: SparkSession, edges: DataFrame, n: Long, s: Long,
              rMax: Double, alpha: Double = Common.DefaultAlpha): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, rMax = rMax)
    refine(initState(spark, n, s), edges, s, rMax, alpha)
  }

  /** Distributed PowerPush: core PowerPush's §5 epoch schedule of thresholds
    * r'_max = [[PowerPush.epochLambda]](λ, i)/m, finishing at λ/m. As in
    * core [[PowerPush.run]], a `refineRMax` then keeps the same vertices
    * pushing at that threshold until no node is active ([[refine]]'s
    * result, on the adjacency built once).
    */
  def powerPush(spark: SparkSession, edges: DataFrame, n: Long, s: Long,
                lambda: Double, m: Long, alpha: Double = Common.DefaultAlpha,
                refineRMax: Double = Double.NaN): DataFrame = {
    Common.requireArgs(n.toInt, s.toInt, alpha, lambda = lambda)
    if (!refineRMax.isNaN) Common.requireArgs(n.toInt, s.toInt, alpha, rMax = refineRMax)
    var epoch = 1
    var refining = false
    loop(initState(spark, n, s), edges, s, alpha, rMax0 = 0.0) { (nActive, rsum) =>
      if (refining) { if (nActive == 0L) None else Some(refineRMax) }
      else {
        var lamEpoch = PowerPush.epochLambda(lambda, epoch)
        while (epoch < PowerPush.EpochNum && rsum <= lamEpoch) {
          epoch += 1
          lamEpoch = PowerPush.epochLambda(lambda, epoch)
        }
        if (rsum > lambda) Some(PushKernel.rMaxFor(lamEpoch, m))
        else if (refineRMax.isNaN) None
        else {
          // #active is counted at the last epoch's threshold, so the first
          // superstep at refineRMax may push nothing, which changes no bit.
          refining = true
          Some(refineRMax)
        }
      }
    }
  }

  /** Continue pushing an *existing* state at a fixed threshold until no node
    * is active — the O(m) refinement of Lemma 4.5, which enforces
    * r(s,v) ≤ d_v·r_max. [[fwdPush]] runs it from e_s; SpeedPPR runs it
    * inside [[powerPush]] (`refineRMax`).
    */
  def refine(stateIn: DataFrame, edges: DataFrame, s: Long, rMax: Double,
             alpha: Double = Common.DefaultAlpha): DataFrame = {
    // No n here: the placeholder n = 1, s = 0 checks α and r_max only;
    // `loop`'s first job checks s against the state's ids.
    Common.requireArgs(1, 0, alpha, rMax = rMax)
    loop(stateIn, edges, s, alpha, rMax0 = rMax) { (nActive, _) =>
      if (nActive == 0L) None else Some(rMax)
    }
  }

  /** The one superstep loop. `next` inspects (#active at the last threshold,
    * Σr) and returns the next threshold, or None to stop; its first call sees
    * `stateIn` at `rMax0`. Each state is checkpointed lazily and materialised
    * by its [[summary]], the one Spark job of a superstep. Throws
    * IllegalArgumentException if s is not among `stateIn`'s ids, and
    * IllegalStateException if `next` asks for more than [[MaxSupersteps]].
    */
  private def loop(stateIn: DataFrame, edges: DataFrame, s: Long, alpha: Double, rMax0: Double)
                  (next: (Long, Double) => Option[Double]): DataFrame = {
    val spark = stateIn.sparkSession
    val part = new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)
    val adj = edges.select(col("src").cast("int"), col("dst").cast("int")).rdd
      .map(row => (row.getInt(0), row.getInt(1)))
    val vertices = stateIn.select(col("id").cast("int"), col("pi"), col("r")).rdd
      .map(row => (row.getInt(0), (row.getDouble(1), row.getDouble(2))))
      .cogroup(adj, part).flatMapValues { case (own, out) => own.map { case (pi, r) => (out.toArray, pi, r) } }
    @tailrec def run(state: RDD[(Int, Vertex)], rMaxUsed: Double, iter: Int): RDD[(Int, Vertex)] = {
      val (rsum, nActive, hasS) = summary(state, s, rMaxUsed)
      require(hasS, s"source s = $s is not among the state's ids")
      next(nActive, rsum) match {
        case None => state
        case Some(_) if iter == MaxSupersteps =>
          throw new IllegalStateException(s"no convergence after $iter supersteps: " +
            s"sum of residues = $rsum, $nActive nodes active at r_max = $rMaxUsed")
        case Some(rMax) => run(superstep(state, s.toInt, alpha, rMax, part).localCheckpoint(), rMax, iter + 1)
      }
    }
    spark.createDataFrame(run(vertices.localCheckpoint(), rMax0, 0)
      .map { case (v, (_, pi, r)) => (v.toLong, pi, r) }).toDF("id", "pi", "r")
  }

  /** One synchronous push superstep at threshold `rMax`. A node is active
    * iff [[Common.isActive]]: r > d·r_max (a dead end hence iff r > 0). An
    * active node sends (1−α)·r/d to each out-neighbour, and a dead end
    * v ≠ s sends (1−α)·r to s (§2's conceptual dead-end edge). An active
    * dead-end source is settled in closed form, π += r and r = 0: the limit
    * of pushing it again on the spot, as `PowerPush.sweep` does.
    */
  private def superstep(state: RDD[(Int, Vertex)], s: Int, alpha: Double, rMax: Double,
                        part: HashPartitioner): RDD[(Int, Vertex)] = {
    val sums = state.flatMap { case (v, (out, _, r)) =>
      if (!Common.isActive(r, out.length, rMax) || (out.isEmpty && v == s)) Iterator.empty
      else if (out.isEmpty) Iterator((s, (v, (1.0 - alpha) * r)))
      else {
        val share = (1.0 - alpha) * r / out.length
        out.iterator.map(u => (u, (v, share)))
      }
    }.groupByKey(part).mapValues(_.toArray.sortBy(_._1).foldLeft(0.0)(_ + _._2))
    state.leftOuterJoin(sums).mapPartitions(_.map { case (v, ((out, pi, r), msg)) =>
      val sum = msg.getOrElse(0.0)
      if (!Common.isActive(r, out.length, rMax)) (v, (out, pi, r + sum))
      else (v, (out, pi + (if (out.isEmpty && v == s) 1.0 else alpha) * r, sum))
    }, preservesPartitioning = true)
  }

  /** (Σr, #active at rMax, whether s is among the ids) in one Spark job. Σr is
    * exact, per-partition BigDecimal sums added on the driver and rounded once,
    * so it does not depend on the partitioning. It can differ in its last bit
    * from core's left-to-right `Common.sum`.
    */
  private def summary(state: RDD[(Int, Vertex)], s: Long, rMax: Double): (Double, Long, Boolean) = {
    val (rsum, nActive, hasS) = state.aggregate((BigDecimal.ZERO, 0L, false))(
      { case ((t, k, h), (v, (out, _, r))) =>
        (t.add(new BigDecimal(r)), if (Common.isActive(r, out.length, rMax)) k + 1 else k, h || v == s) },
      { case ((t1, k1, h1), (t2, k2, h2)) => (t1.add(t2), k1 + k2, h1 || h2) })
    (rsum.doubleValue, nActive, hasS)
  }
}
