package repro.graph

import java.util.{Arrays, Random}
import java.util.concurrent.{Callable, ForkJoinPool}
import org.scalatest.funsuite.AnyFunSuite

class GraphGenSpec extends AnyFunSuite {

  /** (n, m, hash of offset, hash of edges). */
  private def fingerprint(g: CSRGraph) = (g.n, g.m, Arrays.hashCode(g.offset), Arrays.hashCode(g.edges))

  test("six dataset stand-ins exist and mirror Table 1 directedness") {
    assert(GraphGen.datasets.map(_.paperName) ==
      Seq("DBLP", "Web-St", "Pokec", "LJ", "Orkut", "Twitter"))
    assert(GraphGen.datasets.count(!_.directed) == 2) // DBLP, Orkut
  }

  test("generation is deterministic in the seed") {
    val d = GraphGen.tinyDatasets.head
    val g1 = d.generate(seed = 5)
    val g2 = d.generate(seed = 5)
    assert(g1.m == g2.m)
    assert(g1.edges.toSeq == g2.edges.toSeq)
  }

  test("different seeds give different graphs") {
    assert(GraphGen.scaleFree(500, 4.0, seed = 1).edges.toSeq !=
           GraphGen.scaleFree(500, 4.0, seed = 2).edges.toSeq)
  }

  test("generated graphs are pinned bit for bit") {
    // Any change to the generators' draws or to the CSR layout changes every
    // seeded output in the repo.
    val pinned = Seq(
      GraphGen.byName("twitter-lite").generate(42) -> (41700, 1465150, 537804176, 2015859211),
      GraphGen.byName("orkut-lite").generate(42) -> (15350, 1171252, -1830873472, -1306602460),
      GraphGen.byName("webst-lite-tiny").generate(42) -> (141, 1148, -962412015, -1332928194),
      GraphGen.byName("dblp-lite-tiny").generate(42) -> (158, 1060, 1050329136, -128654244),
      GraphGen.randomGraph(200, 4.0, seed = 11) -> (200, 828, -1156236617, 664386008),
    )
    pinned.foreach { case (g, expected) => assert(fingerprint(g) == expected) }
  }

  test("generated graphs are the same at any thread count") {
    def generateOn(threads: Int, name: String): CSRGraph = {
      val pool = new ForkJoinPool(threads)
      try pool.submit(new Callable[CSRGraph] {
        def call(): CSRGraph = GraphGen.byName(name).generate(42)
      }).get()
      finally pool.shutdown()
    }
    // The pins of "generated graphs are pinned bit for bit".
    val pinned = Seq(
      "twitter-lite" -> (41700, 1465150, 537804176, 2015859211),
      "orkut-lite" -> (15350, 1171252, -1830873472, -1306602460),
    )
    for (threads <- Seq(1, 4); (name, expected) <- pinned)
      assert(fingerprint(generateOn(threads, name)) == expected, s"$name on $threads threads")
  }

  test("the draw stream jumps to the draws of java.util.Random") {
    val b = GraphGen.BlockDraws
    for (seed <- Seq(42L, 5L, -1L)) {
      val rng = new Random(seed)
      val serial = Array.fill(math.max(100000, 10 * b + 8))(rng.nextDouble())
      val draws = new GraphGen.DrawStream(seed)
      for (j <- Seq(0, 1, b - 1, b, b + 1, 10 * b + 7)) {
        draws.seek(j)
        assert(draws.next() == serial(j), s"seed $seed, draw $j")
      }
      val fromStart = new GraphGen.DrawStream(seed)
      assert(Arrays.equals(Array.fill(100000)(fromStart.next()), serial.take(100000)), s"seed $seed")
    }
  }

  test("directed stand-ins land near the target average degree") {
    val g = GraphGen.scaleFree(2000, 8.0, seed = 3)
    assert(g.avgDegree > 5.0 && g.avgDegree < 12.0,
      s"avgDegree=${g.avgDegree} too far from 8.0")
  }

  test("undirected stand-ins are symmetric") {
    val g = GraphGen.scaleFreeUndirected(500, 3.0, seed = 4)
    val edgeSet = (0 until g.n).flatMap(v => g.outNeighbors(v).map(u => (v, u))).toSet
    assert(edgeSet.forall { case (v, u) => edgeSet.contains((u, v)) })
  }

  test("undirected stand-ins have no dead ends") {
    val g = GraphGen.scaleFreeUndirected(500, 3.0, seed = 4)
    assert(g.deadEnds.isEmpty)
  }

  test("directed stand-ins keep a small dead-end fraction") {
    val g = GraphGen.scaleFree(1000, 6.0, seed = 5)
    assert(g.deadEnds.nonEmpty, "expected some dead ends")
    assert(g.deadEnds.length <= g.n / 20, "too many dead ends")
  }

  test("degree distribution is heavy-tailed (max ≫ average)") {
    val g = GraphGen.scaleFree(3000, 10.0, seed = 6)
    val maxDeg = (0 until g.n).map(g.outDegree).max
    assert(maxDeg > 8 * g.avgDegree, s"maxDeg=$maxDeg avg=${g.avgDegree}")
  }

  test("no self loops") {
    val g = GraphGen.scaleFree(800, 5.0, seed = 7)
    assert((0 until g.n).forall(v => !g.outNeighbors(v).contains(v)))
  }

  test("no duplicate edges from a directed generator") {
    val g = GraphGen.scaleFree(800, 5.0, seed = 8)
    assert((0 until g.n).forall { v =>
      val ns = g.outNeighbors(v); ns.distinct.length == ns.length
    })
  }

  test("byName resolves every stand-in and rejects unknowns") {
    GraphGen.datasets.foreach(d => assert(GraphGen.byName(d.name) eq d))
    intercept[NoSuchElementException] { GraphGen.byName("nope") }
  }

  test("tiny stand-ins are at least 60 nodes") {
    assert(GraphGen.tinyDatasets.forall(_.n >= 60))
  }
}
