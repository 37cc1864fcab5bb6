package repro.core

import org.scalacheck.{Gen, Prop, Properties}
import org.scalacheck.Prop.propBoolean
import repro.graph.{CSRGraph, ExactPPR, GraphGen}

/** Property-based invariants over random graphs, sources, and thresholds. */
object InvariantProps extends Properties("PPRInvariants") {

  private val alpha = 0.2

  private val graphGen: Gen[CSRGraph] = for {
    n    <- Gen.choose(10, 120)
    deg  <- Gen.choose(2, 6)
    seed <- Gen.choose(0L, 100000L)
  } yield GraphGen.randomGraph(n, deg.toDouble, seed)

  private val graphSource: Gen[(CSRGraph, Int)] = for {
    g <- graphGen
    s <- Gen.choose(0, g.n - 1)
  } yield (g, s)

  property("powItr mass conservation") = Prop.forAll(graphSource) { case (g, s) =>
    val res = PowItr.run(g, s, 1e-6, alpha)
    math.abs(res.l1Pi + res.l1Residue - 1.0) < 1e-9
  }

  property("fwdPush mass conservation") = Prop.forAll(graphSource) { case (g, s) =>
    val res = FwdPush.runLambda(g, s, 1e-6, alpha)
    math.abs(res.l1Pi + res.l1Residue - 1.0) < 1e-9
  }

  property("powerPush mass conservation") = Prop.forAll(graphSource) { case (g, s) =>
    val res = PowerPush.run(g, s, 1e-6, alpha)
    math.abs(res.l1Pi + res.l1Residue - 1.0) < 1e-9
  }

  property("fwdPush stop condition: r(v) <= d_v * rMax") =
    Prop.forAll(graphSource, Gen.choose(1e-7, 1e-3)) { case ((g, s), rMax) =>
      val res = FwdPush.run(g, s, rMax, alpha)
      (0 until g.n).forall(v => res.residue(v) <= g.outDegree(v) * rMax + 1e-15)
    }

  property("powItr error equals (1-alpha)^iterations") =
    Prop.forAll(graphSource) { case (g, s) =>
      val res = PowItr.run(g, s, 1e-5, alpha)
      math.abs(res.l1Residue - math.pow(1 - alpha, res.stats.iterations)) < 1e-12
    }

  property("lemma 4.1: SimFwdPush equals PowItr after any iteration count") =
    Prop.forAll(graphSource, Gen.choose(1, 15)) { case ((g, s), iters) =>
      val stats = new Stats
      var r = Array.tabulate(g.n)(i => if (i == s) 1.0 else 0.0)
      val piSim = new Array[Double](g.n)
      (0 until iters).foreach(_ => r = SimFwdPush.step(g, s, r, piSim, alpha, stats))
      // PowItr residue after j iterations has l1 exactly (1-alpha)^j and the
      // reserve adds the complement:
      val rsum = r.sum
      math.abs(rsum - math.pow(1 - alpha, iters)) < 1e-12 &&
        math.abs(piSim.sum + rsum - 1.0) < 1e-12
    }

  property("powerPush agrees with exact within lambda (small graphs)") =
    Prop.forAll(Gen.choose(10, 60), Gen.choose(0L, 9999L)) { (n, seed) =>
      val g = GraphGen.randomGraph(n, 3.0, seed)
      val exact = ExactPPR.solve(g, 0, alpha)
      val res = PowerPush.run(g, 0, 1e-9, alpha)
      Common.l1Diff(res.pi, exact) <= 1e-9 + 1e-11
    }

  property("fwdPush estimate underestimates coordinate-wise") =
    Prop.forAll(Gen.choose(10, 60), Gen.choose(0L, 9999L)) { (n, seed) =>
      val g = GraphGen.randomGraph(n, 3.0, seed)
      val exact = ExactPPR.solve(g, 0, alpha)
      val res = FwdPush.runLambda(g, 0, 1e-4, alpha)
      (0 until g.n).forall(v => res.pi(v) <= exact(v) + 1e-10)
    }

  /** Random graphs whose nodes all have out-degree d, except ~10% dead ends
    * (duplicate edges and self loops allowed). With one degree, the edge
    * pushes on non-dead-end nodes are exactly d·(edgePushes − pushOps)/(d − 1).
    */
  private val regularWithDeadEnds: Gen[(CSRGraph, Int, Int)] = for {
    n    <- Gen.choose(10, 120)
    d    <- Gen.choose(2, 6)
    seed <- Gen.choose(0L, 100000L)
    s    <- Gen.choose(0, n - 1)
  } yield {
    val rng = new java.util.Random(seed)
    val edges = (0 until n).filter(_ => rng.nextDouble() >= 0.1)
      .flatMap(v => Seq.fill(d)(v -> rng.nextInt(n)))
    (CSRGraph.fromEdges(n, edges), s, d)
  }

  private def logUniform(lo: Double, hi: Double): Gen[Double] =
    Gen.choose(math.log(lo), math.log(hi)).map(math.exp)

  property("refineToRMax: none active, mass kept, Lemma 4.5 push bound, idempotent") =
    Prop.forAll(regularWithDeadEnds, logUniform(1e-8, 1e-1), logUniform(1e-6, 1e-2)) {
      case ((g, s, d), lambda, rMax) =>
        val res = PowerPush.run(g, s, lambda, alpha)
        val (pi, r, st) = (res.pi, res.residue, res.stats)
        val rIn = Common.sum(r)
        val massIn = Common.sum(pi) + rIn
        val (e0, p0, iters) = (st.edgePushes, st.pushOps, st.iterations)
        PowerPush.refineToRMax(g, s, pi, r, rMax, alpha, st)
        val nonDeadEndEdgePushes = d * ((st.edgePushes - e0) - (st.pushOps - p0)) / (d - 1)
        def bits = (pi ++ r).toSeq.map(java.lang.Double.doubleToRawLongBits)
        val refinedBits = bits
        val again = new Stats
        PowerPush.refineToRMax(g, s, pi, r, rMax, alpha, again)
        (0 until g.n).forall(v => !Common.isActive(r(v), g.outDegree(v), rMax)) &&
          math.abs(Common.sum(pi) + Common.sum(r) - massIn) <= 1e-12 &&
          nonDeadEndEdgePushes <= rIn / (alpha * rMax) &&
          st.iterations == iters &&
          again.edgePushes == 0 && again.pushOps == 0 &&
          bits == refinedBits
    }

  property("all estimates non-negative") = Prop.forAll(graphSource) { case (g, s) =>
    val res = PowerPush.run(g, s, 1e-8, alpha)
    res.pi.forall(_ >= 0.0) && res.residue.forall(_ >= 0.0)
  }

  /** Graphs on 1..6 nodes, a third of them edgeless (every node a dead end),
    * the rest with 1..2n random edges, duplicates and self loops allowed.
    */
  private val tinyGraphSource: Gen[(CSRGraph, Int)] = for {
    n     <- Gen.choose(1, 6)
    m     <- Gen.frequency(1 -> Gen.const(0), 2 -> Gen.choose(1, 2 * n))
    edges <- Gen.listOfN(m, Gen.zip(Gen.choose(0, n - 1), Gen.choose(0, n - 1)))
    s     <- Gen.choose(0, n - 1)
  } yield (CSRGraph.fromEdges(n, edges), s)

  property("tiny graphs: every solver terminates and meets its guarantee") =
    Prop.forAll(tinyGraphSource) { case (g, s) =>
      val (lambda, eps) = (1e-9, 0.5)
      val exact = ExactPPR.solve(g, s, alpha)
      def check(name: String)(solve: => PPRResult)(ok: PPRResult => Boolean): Prop = {
        val res = EdgeCasesSpec.terminating(name)(solve)
        ok(res) :| s"$name: l1 = ${Common.l1Diff(res.pi, exact)}, pi = ${res.pi.toSeq}"
      }
      val withinLambda = (res: PPRResult) => Common.l1Diff(res.pi, exact) <= lambda
      val distribution = (res: PPRResult) => math.abs(res.l1Pi - 1.0) <= 1e-9 && res.pi.forall(_ >= 0.0)
      Prop.all(
        check("PowItr")(PowItr.run(g, s, lambda, alpha))(withinLambda),
        check("FwdPush")(FwdPush.runLambda(g, s, lambda, alpha))(withinLambda),
        check("PowerPush")(PowerPush.run(g, s, lambda, alpha))(withinLambda),
        check("PowerPush+refine")(PowerPush.run(g, s, lambda, alpha,
                                                refineRMax = PushKernel.rMaxFor(lambda, g.m)))(withinLambda),
        // BePI stops on an ℓ2 step Δ between iterates (§8.1), which bounds
        // no ℓ1 error: at the default Δ = 1e-8, ℓ1 reached 1.2e-7 on a 6-node
        // graph. It is held to the normalisation it promises.
        check("BePILite")(BePILite.query(BePILite.preprocess(g, 2, alpha), s))(res =>
          math.abs(res.l1Pi - 1.0) <= 1e-9),
        check("MonteCarlo")(MonteCarlo.run(g, s, eps, alpha))(distribution),
        check("Fora")(Fora.run(g, s, eps, alpha))(distribution),
        check("Fora-Index")(Fora.runIndexed(g, s, eps, WalkIndex.buildFora(g, eps, alpha), alpha))(distribution),
        check("ResAcc")(ResAcc.run(g, s, eps, alpha))(distribution),
        check("SpeedPPR")(SpeedPPR.run(g, s, eps, alpha))(distribution),
        check("SpeedPPR-Index")(SpeedPPR.runIndexed(g, s, eps, WalkIndex.buildSpeedPPR(g, alpha), alpha))(distribution),
      ) :|
        s"s = $s, out-lists = ${(0 until g.n).map(g.outNeighbors(_).toSeq)}"
    }
}
