package perfbench

import java.util.SplittableRandom
import java.util.stream.IntStream
import repro.core._
import repro.graph.{CSRGraph, GraphGen}

/** One workload of the benchmark; `eps` is NaN for the high-precision one.
  * README.md says why each exists and which layers it stresses.
  */
final case class Workload(name: String, eps: Double, indexed: Boolean, clients: Int) {
  def highPrecision: Boolean = eps.isNaN
}

object Workload {
  val Dataset = "twitter-lite"
  val GraphSeed = 42L

  /** approx-speedppr is not in BENCHMARK.json: with ~25 queries per run its
    * figures spread too widely between runs (README.md). It stays runnable
    * by name for single-client walk-phase latency.
    */
  val all: Seq[Workload] = Seq(
    Workload("hp-powerpush", Double.NaN, indexed = false, clients = 1),
    Workload("approx-speedppr", 0.5, indexed = false, clients = 1),
    Workload("approx-speedppr-index", 0.1, indexed = true, clients = 1),
    Workload("batch-speedppr", 0.5, indexed = false, clients = Runtime.getRuntime.availableProcessors),
  )
}

/** What set-up leaves ready to serve (the graph, and the index if the
  * workload uses one), plus the query sources picked from the workload seed
  * and their references.
  *
  * Query i asks for source `sources(i mod K)` with walk seed `walkSeed(i)`,
  * so a run's query sequence depends only on the seed, whatever the number
  * of clients.
  */
final class Served(val w: Workload, val g: CSRGraph, val index: WalkIndex, seed: Long) {
  import Served._

  val alpha: Double = Common.DefaultAlpha
  val lambda: Double = Common.defaultLambda(g.m)

  /** K distinct sources, uniform among nodes with out-degree > 0 (§8). */
  val sources: Array[Int] = {
    val rng = new SplittableRandom(seed)
    val picked = scala.collection.mutable.LinkedHashSet.empty[Int]
    while (picked.size < Sources) {
      val v = rng.nextInt(g.n)
      if (g.outDegree(v) > 0) picked += v
    }
    picked.toArray
  }

  /** Reference π per source: PowItr at λ = 1e-12, computed in parallel
    * before anything is timed.
    */
  val refs: Array[Array[Double]] = {
    val out = new Array[Array[Double]](Sources)
    IntStream.range(0, Sources).parallel().forEach(k => out(k) = PowItr.run(g, sources(k), RefLambda, alpha).pi)
    out
  }

  def source(i: Int): Int = sources(Math.floorMod(i, Sources))
  def ref(i: Int): Array[Double] = refs(Math.floorMod(i, Sources))
  def walkSeed(i: Int): Long = seed * 1000003L + i

  /** SpeedPPR's walk count W and its push arguments (λ = m/W, r_max = 1/W),
    * as `SpeedPPR.runImpl` derives them.
    */
  lazy val walks: Long = math.ceil(Common.walkCountW(g.n, w.eps, 1.0 / g.n)).toLong
  def pushLambda: Double = if (w.highPrecision) lambda else g.m.toDouble / walks
  def refineRMax: Double = if (w.highPrecision) Double.NaN else 1.0 / walks

  /** The query itself: one call into the public `repro.core` entry point. */
  def run(i: Int): PPRResult =
    if (w.highPrecision) PowerPush.run(g, source(i), lambda, alpha)
    else if (w.indexed) SpeedPPR.runIndexed(g, source(i), w.eps, index, alpha, walkSeed(i))
    else SpeedPPR.run(g, source(i), w.eps, alpha, walkSeed(i))

  def check(i: Int, res: PPRResult): Checker.Verdict =
    if (w.highPrecision) Checker.highPrecision(res.pi, ref(i), lambda)
    else Checker.approx(res.pi, ref(i), w.eps)

  def selfTest(): String = Checker.selfTest(refs(0), sources(0), lambda, w.eps)
}

object Served {
  /** Distinct query sources per run; queries cycle through them. */
  val Sources = 32
  val RefLambda = 1e-12

  /** Graph generation, plus the index build where the workload uses one:
    * everything between start and ready to serve.
    */
  final case class Setup(g: CSRGraph, index: WalkIndex, times: SetupTimes)
  final case class SetupTimes(startNs: Long, generatedNs: Long, readyNs: Long) {
    def generateS: Double = (generatedNs - startNs) / 1e9
    def indexS: Double = (readyNs - generatedNs) / 1e9
    def totalS: Double = (readyNs - startNs) / 1e9
  }

  def setUp(w: Workload): Setup = {
    val t0 = System.nanoTime()
    val g = GraphGen.byName(Workload.Dataset).generate(Workload.GraphSeed)
    val t1 = System.nanoTime()
    val index = if (w.indexed) WalkIndex.buildSpeedPPR(g) else null
    val t2 = System.nanoTime()
    Setup(g, index, SetupTimes(t0, t1, t2))
  }
}
