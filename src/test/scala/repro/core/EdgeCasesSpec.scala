package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{CSRGraph, ExactPPR, Fig1, GraphGen}
import EdgeCasesSpec.terminating

/** Edge-case and closed-form checks shared across all solvers. */
class EdgeCasesSpec extends AnyFunSuite {

  private val alpha = 0.2
  private val solvers: Seq[(String, (CSRGraph, Int, Double) => PPRResult)] = Seq(
    "PowItr"     -> ((g, s, l) => PowItr.run(g, s, l, alpha)),
    "FwdPush"    -> ((g, s, l) => FwdPush.runLambda(g, s, l, alpha)),
    "PowerPush"  -> ((g, s, l) => PowerPush.run(g, s, l, alpha)),
  )

  private def bits(a: Array[Double]): Seq[Long] = a.toSeq.map(java.lang.Double.doubleToRawLongBits)

  test("two-node cycle closed form for every solver") {
    val g = CSRGraph.fromEdges(2, Seq(0 -> 1, 1 -> 0))
    val p00 = alpha / (1.0 - (1.0 - alpha) * (1.0 - alpha))
    solvers.foreach { case (name, run) =>
      val res = run(g, 0, 1e-12)
      assert(math.abs(res.pi(0) - p00) < 1e-11, s"$name pi(0)")
      assert(math.abs(res.pi(1) - (1 - p00)) < 1e-11, s"$name pi(1)")
    }
  }

  test("star graph: hub to leaves, each leaf equally likely") {
    // 0 -> {1,2,3,4}, each leaf -> 0
    val edges = (1 to 4).flatMap(i => Seq(0 -> i, i -> 0))
    val g = CSRGraph.fromEdges(5, edges)
    val exact = ExactPPR.solve(g, 0, alpha)
    solvers.foreach { case (name, run) =>
      val res = run(g, 0, 1e-12)
      assert(Common.l1Diff(res.pi, exact) < 1e-11, name)
      (2 to 4).foreach(i => assert(math.abs(res.pi(1) - res.pi(i)) < 1e-12, s"$name symmetry"))
    }
  }

  test("directed chain: PPR decays along the chain") {
    val g = CSRGraph.fromEdges(5, Seq(0 -> 1, 1 -> 2, 2 -> 3, 3 -> 4, 4 -> 0))
    solvers.foreach { case (name, run) =>
      val pi = run(g, 0, 1e-12).pi
      (0 until 4).foreach(i => assert(pi(i) > pi(i + 1), s"$name monotone at $i"))
    }
  }

  test("alpha = 0.8 converges much faster than alpha = 0.2") {
    val g = GraphGen.scaleFree(500, 5.0, seed = 161)
    val hi = PowItr.run(g, 0, 1e-8, 0.8)
    val lo = PowItr.run(g, 0, 1e-8, 0.2)
    assert(hi.stats.iterations < lo.stats.iterations / 3)
  }

  test("all solvers agree with each other at lambda = 1e-12 on Fig1") {
    val results = solvers.map { case (name, run) => name -> run(Fig1.graph, 2, 1e-12).pi }
    results.sliding(2).foreach {
      case Seq((n1, a), (n2, b)) =>
        assert(Common.l1Diff(a, b) < 1e-11, s"$n1 vs $n2")
      case _ =>
    }
  }

  test("estimates sum below 1 and residues account for the gap") {
    val g = GraphGen.scaleFree(300, 5.0, seed = 162)
    solvers.foreach { case (name, run) =>
      val res = run(g, 1, 1e-6)
      assert(res.l1Pi <= 1.0 + 1e-12, name)
      assert(math.abs(1.0 - res.l1Pi - res.l1Residue) < 1e-9, name)
    }
  }

  test("query from every node of Fig1 matches exact for PowerPush") {
    (0 until 5).foreach { s =>
      val exact = ExactPPR.solve(Fig1.graph, s, alpha)
      val res = PowerPush.run(Fig1.graph, s, 1e-12, alpha)
      assert(Common.l1Diff(res.pi, exact) < 1e-11, s"source $s")
    }
  }

  test("isActive floor prevents denormal livelock on a dead-end source") {
    // Source is a dead end: its push cycles mass back to itself forever
    // without the TinyResidue floor (0.8 * minDenormal rounds to itself).
    val g = CSRGraph.fromEdges(2, Seq(1 -> 0)) // node 0 is a dead end
    val res = FwdPush.runLambda(g, 0, 1e-10, alpha)
    assert(res.pi(0) > 0.99) // everything stops at the source
    // geometric decay 1 → 1e-300 at ×(1−α) per push is ~3100 pushes; without
    // the floor this would spin forever at the smallest denormal
    assert(res.stats.pushOps < 5000)
  }

  test("edgeless single-node graph: every solver terminates within lambda") {
    // r_max = λ/m would be ∞ here, leaving the dead-end source inactive
    // with Σr = 0.8 > λ; and W = ⌈…·ln 1⌉ = 0 walks would leave the walk
    // solvers' residue unspent.
    val g = CSRGraph.fromEdges(1, Nil)
    val lambda = 1e-8
    solvers.foreach { case (name, run) =>
      val res = terminating(name)(run(g, 0, lambda))
      assert(res.pi(0) >= 1.0 - lambda, s"$name pi(0) = ${res.pi(0)}")
    }
    val eps = 0.5
    Seq[(String, () => PPRResult)](
      "MonteCarlo"     -> (() => MonteCarlo.run(g, 0, eps, alpha)),
      "Fora"           -> (() => Fora.run(g, 0, eps, alpha)),
      "ResAcc"         -> (() => ResAcc.run(g, 0, eps, alpha)),
      "SpeedPPR"       -> (() => SpeedPPR.run(g, 0, eps, alpha)),
      "SpeedPPR-Index" -> (() => SpeedPPR.runIndexed(g, 0, eps, WalkIndex.buildSpeedPPR(g, alpha), alpha)),
    ).foreach { case (name, run) =>
      val res = terminating(name)(run())
      assert(math.abs(res.pi(0) - 1.0) <= 1e-9, s"$name pi(0) = ${res.pi(0)}")
    }
  }

  test("dead-end source: the refinement sweeps match FwdPush bit for bit") {
    // Node 0 is a dead end, so every push of the source returns (1−α) of its
    // residue to itself: the refinement must push it until inactive, as the
    // FIFO does, and the two then make the same operations.
    val g = CSRGraph.fromEdges(3, Seq(1 -> 0, 2 -> 1))
    val rMax = 1e-4
    val swept = PowerPush.run(g, 0, g.m * rMax, alpha, refineRMax = rMax)
    val fifo = FwdPush.run(g, 0, rMax, alpha)
    assert(fifo.stats.pushOps > 3000)
    assert(bits(swept.pi) == bits(fifo.pi))
    assert(bits(swept.residue) == bits(fifo.residue))
    assert(swept.stats.edgePushes == fifo.stats.edgePushes)
    assert(swept.stats.pushOps == fifo.stats.pushOps)
  }

  test("dead-end source on ten million nodes: the refinement stays O(n)") {
    // One O(n) sweep per self-push would be ~3 100 sweeps, ~3·10^10 node visits.
    val g = CSRGraph.fromEdges(10000000, Nil)
    val rMax = 1e-4
    val res = terminating("PowerPush with refinement")(PowerPush.run(g, 0, rMax, alpha, refineRMax = rMax))
    assert(res.pi(0) >= 1.0 - 1e-12, s"pi(0) = ${res.pi(0)}")
    assert(res.residue(0) <= Common.TinyResidue)
  }

  test("invalid arguments throw IllegalArgumentException naming the argument") {
    val g = Fig1.graph
    def rejects(arg: String)(run: => Any): Unit = {
      val e = intercept[IllegalArgumentException](run)
      assert(e.getMessage.contains(arg), e.getMessage)
    }
    solvers.foreach { case (name, run) =>
      withClue(name) {
        rejects("source s")(run(g, -1, 1e-8))
        rejects("source s")(run(g, g.n, 1e-8))
        rejects("lambda")(run(g, 0, 0.0))
      }
    }
    Seq(0.0, 1.0).foreach { a =>
      rejects("alpha")(PowItr.run(g, 0, 1e-8, a))
      rejects("alpha")(FwdPush.run(g, 0, 1e-4, a))
      rejects("alpha")(FwdPush.runLambda(g, 0, 1e-8, a))
      rejects("alpha")(PowerPush.run(g, 0, 1e-8, a))
      rejects("alpha")(PowerPush.refineToRMax(g, 0, new Array[Double](g.n), new Array[Double](g.n), 1e-4, a, new Stats))
    }
    rejects("source s")(FwdPush.run(g, g.n, 1e-4, alpha))
    rejects("source s")(PowerPush.refineToRMax(g, g.n, new Array[Double](g.n), new Array[Double](g.n), 1e-4, alpha, new Stats))
    Seq(0.0, -1e-4).foreach { rMax =>
      rejects("r_max")(FwdPush.run(g, 0, rMax, alpha))
      rejects("r_max")(PowerPush.run(g, 0, 1e-8, alpha, refineRMax = rMax))
      rejects("r_max")(PowerPush.refineToRMax(g, 0, new Array[Double](g.n), new Array[Double](g.n), rMax, alpha, new Stats))
    }
    val index = WalkIndex.buildSpeedPPR(g, alpha)
    val walkSolvers: Seq[(String, (Int, Double, Double) => PPRResult)] = Seq(
      "MonteCarlo"     -> ((s, e, a) => MonteCarlo.run(g, s, e, a)),
      "Fora"           -> ((s, e, a) => Fora.run(g, s, e, a)),
      "ResAcc"         -> ((s, e, a) => ResAcc.run(g, s, e, a)),
      "SpeedPPR"       -> ((s, e, a) => SpeedPPR.run(g, s, e, a)),
      "SpeedPPR-Index" -> ((s, e, a) => SpeedPPR.runIndexed(g, s, e, index, a)),
    )
    walkSolvers.foreach { case (name, run) =>
      withClue(name) {
        rejects("source s")(run(-1, 0.5, alpha))
        rejects("source s")(run(g.n, 0.5, alpha))
        Seq(0.0, 1.0).foreach(a => rejects("alpha")(run(0, 0.5, a)))
        Seq(0.0, 1.0).foreach(e => rejects("eps")(run(0, e, alpha)))
      }
    }
    rejects("source s")(BePILite.query(BePILite.preprocess(g, 1, alpha), g.n))
    Seq(0.0, -1e-9).foreach(d => rejects("delta")(BePILite.preprocess(g, 1, alpha, delta = d)))
    // The index builders and the ground truth. Unchecked, α = 1 builds and
    // α = 0 walks forever, so α = 0 comes last.
    Seq(1.0, 0.0).foreach { a =>
      rejects("alpha")(WalkIndex.build(g, _ => 1, a))
      rejects("alpha")(WalkIndex.buildFora(g, 0.5, a))
      rejects("alpha")(WalkIndex.buildSpeedPPR(g, a))
      rejects("alpha")(BePILite.preprocess(g, 1, a))
      rejects("alpha")(ExactPPR.solve(g, 0, a))
    }
    rejects("source s")(ExactPPR.solve(g, g.n, alpha))
  }

  test("isActive semantics") {
    assert(Common.isActive(0.5, 2, 0.1))
    assert(!Common.isActive(0.2, 2, 0.1))
    assert(Common.isActive(1e-9, 0, 0.1))        // dead end with real residue
    assert(!Common.isActive(1e-310, 0, 0.1))     // denormal floor
    assert(!Common.isActive(0.0, 0, 0.0))
  }
}

object EdgeCasesSpec {

  /** Runs `run` in a daemon thread with a 10 s join, so a hang fails the
    * caller instead of the whole test run; rethrows what `run` threw.
    */
  def terminating[A](name: String)(run: => A): A = {
    var res: scala.util.Try[A] = null
    val t = new Thread(() => res = scala.util.Try(run))
    t.setDaemon(true)
    t.start()
    t.join(10000L)
    org.scalatest.Assertions.assert(!t.isAlive, s"$name did not terminate")
    res.get
  }
}
