package repro.graph

import java.util.stream.IntStream

/** Compact in-memory directed graph in CSR (compressed sparse row) layout.
  *
  * This is the storage format the paper's `PowerPush` relies on: nodes sorted
  * by id, adjacency lists concatenated in id order into one large edge array,
  * so a global sequential scan of all out-edges is cache-friendly (§5,
  * "Global Sequential Scan v.s. Local Random Access").
  *
  * Dead-end nodes (out-degree 0) are kept as-is; per §2 of the paper, an
  * α-random walk at a dead end jumps back to the *source*, so the redirect is
  * applied inside each algorithm (it depends on the query's source node).
  *
  * @param n      number of nodes; ids are 0 until n
  * @param offset CSR row offsets, length n+1; out-edges of v are
  *               `edges(offset(v) until offset(v+1))`
  * @param edges  concatenated adjacency lists, length m
  */
final class CSRGraph(val n: Int, val offset: Array[Int], val edges: Array[Int]) {

  /** Number of directed edges. */
  val m: Int = edges.length

  /** Out-degree of node v. */
  @inline def outDegree(v: Int): Int = offset(v + 1) - offset(v)

  /** Apply f to every out-neighbor of v. */
  @inline def foreachOut(v: Int)(f: Int => Unit): Unit = {
    var i = offset(v)
    val end = offset(v + 1)
    while (i < end) { f(edges(i)); i += 1 }
  }

  /** Out-neighbors of v, as a fresh copy of its adjacency list. */
  def outNeighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(edges, offset(v), offset(v + 1))

  /** Ids of all dead-end nodes (out-degree 0). */
  lazy val deadEnds: Array[Int] = (0 until n).filter(outDegree(_) == 0).toArray

  /** Average out-degree m/n. */
  def avgDegree: Double = m.toDouble / n
}

object CSRGraph {

  /** Edges per run of rows that [[fromRows]] sorts as one parallel task. */
  private final val SortRunEdges = 1 << 14

  /** Finish a CSR graph whose rows are filled but not yet sorted: sort each
    * adjacency list, so the layout is deterministic in id order. This is the
    * one row sort of the package: the directed generators fill `offset` and
    * `edges` as their rows arrive and call it directly, and
    * [[EdgeBuffer.toCSR]] ends in it. The lists are disjoint, so they are
    * sorted in parallel on the current fork-join pool.
    *
    * @param offset row offsets, length n+1, with `offset(n) == edges.length`
    * @param edges  the rows in id order, each in any order; sorted in place
    */
  def fromRows(n: Int, offset: Array[Int], edges: Array[Int]): CSRGraph = {
    // Runs of whole rows of about SortRunEdges edges each; runs of equal
    // row count would not balance, since rows differ in length.
    val cuts = Array.newBuilder[Int]
    cuts += 0
    var runEnd = SortRunEdges.toLong
    var i = 1
    while (i < n) {
      if (offset(i) >= runEnd) { cuts += i; runEnd = offset(i).toLong + SortRunEdges }
      i += 1
    }
    cuts += n
    val firstRow = cuts.result()
    IntStream.range(0, firstRow.length - 1).parallel().forEach { k =>
      var v = firstRow(k)
      while (v < firstRow(k + 1)) { java.util.Arrays.sort(edges, offset(v), offset(v + 1)); v += 1 }
    }
    new CSRGraph(n, offset, edges)
  }

  /** A growable (src, dst) edge list in two primitive arrays, doubled when
    * full, for edges that arrive in no particular order: the undirected
    * generator, which adds both arcs of an edge, and the loaders. Duplicate
    * edges are kept (the paper's transition matrix is defined off the
    * multiset of out-edges; the generators avoid duplicates anyway).
    *
    * @param capacity initial capacity in edges; a size hint, not a limit
    */
  final class EdgeBuffer(capacity: Int) {
    private var src = new Array[Int](math.max(1, capacity))
    private var dst = new Array[Int](src.length)
    private var size = 0

    def add(s: Int, d: Int): Unit = {
      if (size == src.length) {
        src = java.util.Arrays.copyOf(src, 2 * size)
        dst = java.util.Arrays.copyOf(dst, 2 * size)
      }
      src(size) = s; dst(size) = d; size += 1
    }

    /** Counting-sort the edges by source into rows on ids [0, n), then sort
      * the rows with [[fromRows]].
      */
    def toCSR(n: Int): CSRGraph = {
      val offset = new Array[Int](n + 1)
      var i = 0
      while (i < size) {
        val s = src(i); val d = dst(i)
        require(s >= 0 && s < n && d >= 0 && d < n, s"edge ($s,$d) out of [0,$n)")
        offset(s + 1) += 1
        i += 1
      }
      i = 0
      while (i < n) { offset(i + 1) += offset(i); i += 1 }
      val edges = new Array[Int](size)
      val cursor = java.util.Arrays.copyOf(offset, n)
      i = 0
      while (i < size) { val s = src(i); edges(cursor(s)) = dst(i); cursor(s) += 1; i += 1 }
      fromRows(n, offset, edges)
    }
  }

  /** Build a CSR graph from an edge list (see `EdgeBuffer`). Ids must be in
    * [0, n).
    */
  def fromEdges(n: Int, edgeList: Iterable[(Int, Int)]): CSRGraph = {
    val buf = new EdgeBuffer(edgeList.knownSize)
    edgeList.foreach { case (s, d) => buf.add(s, d) }
    buf.toCSR(n)
  }
}
