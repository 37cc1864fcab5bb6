package repro.graph

import java.util.{Arrays, Random}
import java.util.stream.IntStream

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on six SNAP graphs (Table 1). Those are not available
  * offline, so we generate *scale-free stand-ins* that preserve each dataset's
  * directedness, average degree m/n, and heavy-tailed degree skew, scaled down
  * in n (see DESIGN.md §4). Generation is Chung-Lu style: node weights follow
  * a power law; out-degrees are proportional to weight; edge targets are drawn
  * with probability proportional to target weight via an inverse-CDF power-law
  * draw. Directed graphs keep a small fraction of dead-end nodes so the
  * dead-end→source redirect path of the algorithms is exercised.
  *
  * The scale-free generators draw their targets from the stream of
  * `java.util.Random(seed).nextDouble()`, computed in parallel blocks that
  * jump ahead in it (see [[DrawStream]]), and accept them serially in draw
  * order. Their graphs are therefore the same bits as one serial `Random`
  * loop gives, at any thread count.
  */
object GraphGen {

  /** One named dataset stand-in, mirroring a row of the paper's Table 1. */
  final case class Dataset(
      name: String,
      paperName: String,
      n: Int,
      avgDeg: Double,
      directed: Boolean,
      /** (n, m) of the original SNAP graph, for EXPERIMENTS.md side-by-side. */
      paperN: Long,
      paperM: Long,
  ) {
    def generate(seed: Long = 42L): CSRGraph =
      if (directed) scaleFree(n, avgDeg, seed = seed)
      else scaleFreeUndirected(n, avgDeg / 2.0, seed = seed)
  }

  /** The six stand-ins; n scaled down 50–1000×, m/n matching Table 1. */
  val datasets: Seq[Dataset] = Seq(
    Dataset("dblp-lite",    "DBLP",    6340,  6.62,  directed = false, 317000L,   2100000L),
    Dataset("webst-lite",   "Web-St",  5640,  8.20,  directed = true,  282000L,   2310000L),
    Dataset("pokec-lite",   "Pokec",   16300, 18.8,  directed = true,  1630000L,  30600000L),
    Dataset("lj-lite",      "LJ",      24250, 14.1,  directed = true,  4850000L,  68400000L),
    Dataset("orkut-lite",   "Orkut",   15350, 76.3,  directed = false, 3070000L,  234000000L),
    Dataset("twitter-lite", "Twitter", 41700, 35.3,  directed = true,  41700000L, 1470000000L),
  )

  /** Small versions of the same shapes for unit tests. */
  val tinyDatasets: Seq[Dataset] =
    datasets.map(d => d.copy(name = d.name + "-tiny", n = math.max(60, d.n / 40)))

  def byName(name: String): Dataset =
    (datasets ++ tinyDatasets).find(_.name == name)
      .getOrElse(throw new NoSuchElementException(s"unknown dataset $name"))

  /** Power-law exponent β of the stand-ins, for both degree and target skew. */
  private final val Beta = 0.55

  /** Fraction of a directed stand-in's nodes forced to out-degree 0. */
  private final val DeadEndFrac = 0.01

  /** Power-law target of the draw u ∈ [0, 1): an id in [0, n) with
    * P(id = k) ∝ (k+1)^(−β), via the continuous inverse CDF, β = [[Beta]].
    */
  @inline private def powerLawTarget(u: Double, n: Int): Int = {
    val x = math.pow(u, 1.0 / (1.0 - Beta)) * n
    math.min(n - 1, x.toInt)
  }

  /** Draws per block of the parallel target fill. */
  private[graph] final val BlockDraws = 1 << 12

  /** Most blocks in one batch of the fill, which bounds its buffer. */
  private final val BatchBlocks = 64

  /** The draws of `new java.util.Random(seed).nextDouble()`, by index.
    *
    * `Random` is the 48-bit LCG x ← a·x + c (mod 2^48), a = 0x5DEECE66D,
    * c = 0xB, started at (seed ^ a) mod 2^48; its Javadoc fixes all of it.
    * Draw j takes LCG steps 2j+1 and 2j+2 and is (next26·2^27 + next27)·2^-53,
    * as `Random.nextDouble` forms it. [[seek]] jumps to any draw in O(log j)
    * by squaring the affine step (F. Brown, "Random Number Generation with
    * Arbitrary Strides", Trans. Am. Nucl. Soc. 71, 1994), so blocks of draws
    * can be filled on any thread with the bits of one serial `Random`.
    */
  private[graph] final class DrawStream(seed: Long) {
    private final val A = 0x5DEECE66DL
    private final val C = 0xBL
    private final val Mask = (1L << 48) - 1
    private final val DoubleUnit = 1.0 / (1L << 53)
    private var x = 0L

    /** Make draw j the next one. */
    def seek(j: Long): Unit = {
      // (a, c) is the map of 2^i steps in round i: x ← a·x + c.
      var a = A
      var c = C
      var state = (seed ^ A) & Mask
      var k = 2 * j
      while (k != 0) {
        if ((k & 1) != 0) state = (a * state + c) & Mask
        c = ((a + 1) * c) & Mask
        a = (a * a) & Mask
        k >>>= 1
      }
      x = state
    }
    seek(0)

    def next(): Double = {
      val hi = (x * A + C) & Mask
      x = (hi * A + C) & Mask
      (((hi >>> 22) << 27) + (x >>> 21)) * DoubleUnit
    }
  }

  /** The power-law targets of the draws of `seed`, read in draw order. When
    * the buffer is used up, [[fill]] fills the next batch of whole blocks in
    * parallel on the current fork-join pool, each block from its own
    * [[DrawStream]] seeked to its first draw, so the targets do not depend
    * on the thread count.
    */
  private final class Targets(seed: Long, n: Int) {
    private var buf: Array[Int] = null
    private var pos, len = 0
    private var filled = 0L

    def isEmpty: Boolean = pos == len

    /** Fill the next batch, given that at least `need` ≥ 1 more targets will
      * be read: ⌈need / [[BlockDraws]]⌉ blocks, at most [[BatchBlocks]].
      */
    def fill(need: Long): Unit = {
      val blocks = math.min(BatchBlocks.toLong, (need + BlockDraws - 1) / BlockDraws).toInt
      if (buf == null || buf.length < blocks * BlockDraws) buf = new Array[Int](blocks * BlockDraws)
      val out = buf
      val from = filled
      IntStream.range(0, blocks).parallel().forEach { b =>
        val draws = new DrawStream(seed)
        draws.seek(from + b * BlockDraws)
        var i = b * BlockDraws
        val end = i + BlockDraws
        while (i < end) { out(i) = powerLawTarget(draws.next(), n); i += 1 }
      }
      pos = 0
      len = blocks * BlockDraws
      filled += len
    }

    def next(): Int = { val t = buf(pos); pos += 1; t }
  }

  /** Directed scale-free graph; the top [[DeadEndFrac]] of ids (at least
    * one) are dead ends.
    *
    * @param n      node count
    * @param avgDeg target average out-degree (m ≈ n·avgDeg)
    */
  def scaleFree(n: Int, avgDeg: Double, seed: Long = 42L): CSRGraph = {
    require(n >= 2 && avgDeg >= 1.0)
    // Node weights w_k ∝ (k+1)^(−β); out-degree of k is avgDeg·w_k/mean(w),
    // capped so a single node cannot own more than ~n/2 out-edges.
    val w = Array.tabulate(n)(k => math.pow(k + 1.0, -Beta))
    val meanW = w.sum / n
    val nDead = math.max(1, (n * DeadEndFrac).toInt)
    val targetDeg = Array.tabulate(n) { k =>
      if (k >= n - nDead) 0 // highest ids become dead ends
      else math.max(1, math.min(n / 2, math.round(avgDeg * w(k) / meanW).toInt))
    }
    val targets = new Targets(seed, n)
    // Node v reads at least min(d − drawn, 20d − tries) more targets, and
    // every later node u at least d_u, whose sum is `rest`.
    var rest = targetDeg.sum.toLong
    // Rows arrive in id order, so each is written in place as it is drawn;
    // `edges` is trimmed only if some row ran out of tries.
    val offset = new Array[Int](n + 1)
    val edges = new Array[Int](rest.toInt)
    var m = 0
    val mark = Array.fill(n)(-1) // mark(t) == v: v already drew t
    var v = 0
    while (v < n) {
      val d = targetDeg(v)
      rest -= d
      var drawn = 0
      var tries = 0
      while (drawn < d && tries < d * 20) {
        if (targets.isEmpty) targets.fill(rest + math.min(d - drawn, d * 20 - tries))
        val t = targets.next()
        require(t >= 0 && t < n, s"edge ($v,$t) out of [0,$n)")
        if (t != v && mark(t) != v) { mark(t) = v; edges(m) = t; m += 1; drawn += 1 }
        tries += 1
      }
      offset(v + 1) = m
      v += 1
    }
    CSRGraph.fromRows(n, offset, if (m == edges.length) edges else Arrays.copyOf(edges, m))
  }

  /** Undirected scale-free graph materialized as both directed arcs, exactly
    * like the paper does for DBLP and Orkut ("replace each un-directed edge
    * with two directed edges"). `avgDeg` counts undirected edges per node.
    */
  def scaleFreeUndirected(n: Int, avgDeg: Double, seed: Long = 42L): CSRGraph = {
    require(n >= 2 && avgDeg >= 0.5)
    val w = Array.tabulate(n)(k => math.pow(k + 1.0, -Beta))
    val meanW = w.sum / n
    val deg = Array.tabulate(n)(v =>
      math.max(1, math.min(n / 2, math.round(avgDeg * w(v) / meanW).toInt)))
    val targets = new Targets(seed, n)
    var rest = deg.sum.toLong // as in scaleFree
    val pairs = new LongSet(rest.toInt)
    val buf = new CSRGraph.EdgeBuffer(2 * rest.toInt)
    var v = 0
    while (v < n) {
      val d = deg(v)
      rest -= d
      var added = 0
      var tries = 0
      while (added < d && tries < d * 20) {
        if (targets.isEmpty) targets.fill(rest + math.min(d - added, d * 20 - tries))
        val t = targets.next()
        val key = math.min(v, t).toLong * n + math.max(v, t)
        if (t != v && pairs.add(key)) {
          buf.add(v, t); buf.add(t, v)
          added += 1
        }
        tries += 1
      }
      v += 1
    }
    buf.toCSR(n)
  }

  /** Uniform random directed graph (Erdős–Rényi-ish), for property tests. */
  def randomGraph(n: Int, avgDeg: Double, seed: Long = 7L,
                  allowDeadEnds: Boolean = true): CSRGraph = {
    val rng = new Random(seed)
    // Rows are written in place, as in scaleFree; each row is full, so
    // `edges` only grows to fit the next row and is trimmed at the end.
    val offset = new Array[Int](n + 1)
    var edges = new Array[Int](math.max(1, n))
    var m = 0
    val mark = Array.fill(n)(-1) // mark(t) == v: v already drew t
    var v = 0
    while (v < n) {
      // Poisson-ish degree via geometric trials around avgDeg.
      val base = if (allowDeadEnds && rng.nextDouble() < 0.05) 0
                 else 1 + rng.nextInt(math.max(1, (2 * avgDeg).toInt))
      val d = math.min(base, n - 1)
      if (m + d > edges.length) edges = Arrays.copyOf(edges, math.max(2 * edges.length, m + d))
      var drawn = 0
      while (drawn < d) {
        val t = rng.nextInt(n)
        require(t >= 0 && t < n, s"edge ($v,$t) out of [0,$n)")
        if (t != v && mark(t) != v) { mark(t) = v; edges(m) = t; m += 1; drawn += 1 }
      }
      offset(v + 1) = m
      v += 1
    }
    CSRGraph.fromRows(n, offset, Arrays.copyOf(edges, m))
  }

  /** Open-addressing set of non-negative Long keys (linear probing; −1 marks
    * an empty slot), kept at most half full.
    */
  private final class LongSet(expected: Int) {
    private var slots = emptySlots(math.max(16, Integer.highestOneBit(math.max(1, expected)) * 4))
    private var size = 0

    private def emptySlots(capacity: Int): Array[Long] = {
      val a = new Array[Long](capacity)
      java.util.Arrays.fill(a, -1L)
      a
    }

    /** Insert `key`; true if it was not already in the set. */
    def add(key: Long): Boolean = {
      val mask = slots.length - 1
      var i = (key * 0x9E3779B97F4A7C15L >>> 32).toInt & mask
      while (slots(i) != -1L && slots(i) != key) i = (i + 1) & mask
      if (slots(i) == key) false
      else {
        slots(i) = key
        size += 1
        if (2 * size > slots.length) {
          val old = slots
          slots = emptySlots(2 * old.length)
          size = 0
          old.foreach(k => if (k != -1L) add(k))
        }
        true
      }
    }
  }
}
