package perfbench

import java.util.stream.IntStream
import scala.collection.mutable.ArrayBuffer
import repro.core._

/** The traced run: spans around the public calls of each layer, recorded
  * from here rather than inside `src/main`, and the layers' public counters.
  */
object Layers {

  /** Deterministic work counts for one source, read from `PPRResult.stats`,
    * a `Trace` with `traceEvery = 1`, the refined residues and the public
    * `WalkIndex` arrays. `walks` is Σ⌈r_v·W⌉; of those, `served` come from
    * stored index entries, `markers` of which end in a dead-end marker that
    * must be finished live, and `topups` have no stored entry.
    */
  final case class SourceCounts(edgePushes: Long, pushOps: Long, sweeps: Long,
                                queueEdgePushes: Long, queueOps: Long,
                                refineEdgePushes: Long, refineOps: Long,
                                walks: Long, served: Long, markers: Long, topups: Long)

  def counts(sv: Served, s: Int): SourceCounts = {
    val g = sv.g
    val refined = !sv.refineRMax.isNaN
    val trace = new Trace
    val full = PowerPush.run(g, s, sv.pushLambda, sv.alpha, refineRMax = sv.refineRMax,
      trace = trace, traceEvery = 1L)
    val st = full.stats
    // One trace point at the start, one per queue-phase push op, one per
    // sweep and one after the refinement.
    val queueOps = trace.points.length - 1 - st.iterations - (if (refined) 1 else 0)
    val queueEdgePushes = trace.points(queueOps)._1
    if (!refined)
      return SourceCounts(st.edgePushes, st.pushOps, st.iterations, queueEdgePushes, queueOps, 0, 0, 0, 0, 0, 0)
    val split = PowerPush.run(g, s, sv.pushLambda, sv.alpha)
    val rst = new Stats
    PowerPush.refineToRMax(g, s, split.pi, split.residue, sv.refineRMax, sv.alpha, rst)
    val r = full.residue
    var walks, served, markers = 0L
    var v = 0
    while (v < g.n) {
      if (r(v) > 0.0) {
        val wv = math.ceil(r(v) * sv.walks).toLong
        walks += wv
        if (sv.index != null) {
          val k = math.min(wv, sv.index.countOf(v))
          served += k
          var j = sv.index.offsets(v)
          while (j < sv.index.offsets(v) + k) { if (sv.index.endpoints(j.toInt) < 0) markers += 1; j += 1 }
        }
      }
      v += 1
    }
    SourceCounts(st.edgePushes, st.pushOps, st.iterations, queueEdgePushes, queueOps,
      rst.edgePushes, rst.pushOps, walks, served, markers, if (sv.index != null) walks - served else 0)
  }

  /** Counts for every distinct source, in parallel (nothing here is timed). */
  def allCounts(sv: Served): Seq[SourceCounts] = {
    val out = new Array[SourceCounts](sv.sources.length)
    IntStream.range(0, out.length).parallel().forEach(k => out(k) = counts(sv, sv.sources(k)))
    out.toSeq
  }

  def e2eName(w: Workload): String =
    if (w.highPrecision) "core.PowerPush.run" else if (w.indexed) "core.SpeedPPR.runIndexed" else "core.SpeedPPR.run"

  private def statsCounts(st: Stats): Seq[(String, Double)] =
    Seq("edge_pushes" -> st.edgePushes.toDouble, "push_ops" -> st.pushOps.toDouble, "sweeps" -> st.iterations.toDouble)

  /** One traced query: the end-to-end call, then for SpeedPPR the push it
    * starts with, whole and split into the push and the refinement, all
    * under one query id.
    */
  def tracedQuery(sv: Served, i: Int, spans: ArrayBuffer[Span], answer: (Int, PPRResult, Long) => Sample): Sample = {
    val g = sv.g
    val s = sv.source(i)
    val q0 = System.nanoTime()
    val (res, a, b) = Loop.timed(sv.run(i))
    spans += Span(i, e2eName(sv.w), "query", a, b, statsCounts(res.stats))
    val sample = answer(i, res, b - a)
    if (!sv.w.highPrecision) {
      val (push, c, d) = Loop.timed(PowerPush.run(g, s, sv.pushLambda, sv.alpha, refineRMax = sv.refineRMax))
      spans += Span(i, "core.PowerPush.run", "query", c, d, statsCounts(push.stats))
      val (split, e, f) = Loop.timed(PowerPush.run(g, s, sv.pushLambda, sv.alpha))
      spans += Span(i, "core.PowerPush.run[no-refine]", "query", e, f, statsCounts(split.stats))
      val rst = new Stats
      val (_, h, k) = Loop.timed(PowerPush.refineToRMax(g, s, split.pi, split.residue, sv.refineRMax, sv.alpha, rst))
      spans += Span(i, "core.PowerPush.refineToRMax", "query", h, k, statsCounts(rst))
    }
    spans += Span(i, "query", "", q0, System.nanoTime())
    sample
  }

  /** Per-layer metrics (name → value, unit) from the set-up times, the
    * per-source counts, an untraced loop (JVM counters, latency baseline)
    * and a traced loop (spans).
    */
  def metrics(sv: Served, setups: Seq[Served.SetupTimes], cs: Seq[SourceCounts],
              plain: LoopResult, traced: LoopResult): Seq[(String, Double, String)] = {
    val w = sv.w
    val n = sv.g.n
    def mean(f: SourceCounts => Long) = cs.map(f(_).toDouble).sum / cs.length
    def ratio(a: Double, b: Double) = if (b > 0) a / b else 0.0
    def byQuery(name: String) = traced.spans.filter(_.name == name).map(x => x.query -> x).toMap
    val e2e = byQuery(e2eName(w))
    val push = if (w.highPrecision) e2e else byQuery("core.PowerPush.run")
    val refine = byQuery("core.PowerPush.refineToRMax")
    val walksOf = sv.sources.zip(cs.map(_.walks)).toMap
    // Phase 2 of SpeedPPR: the query minus the push it starts with.
    val phase2Ms = e2e.keys.toSeq.collect { case q if push.contains(q) && !w.highPrecision => q -> (e2e(q).ms - push(q).ms) }
    val live = !w.highPrecision && !w.indexed
    val sweeps = cs.map(_.sweeps).sum
    val scanOps = cs.map(c => c.pushOps - c.queueOps - c.refineOps).sum
    val mb = 1024.0 * 1024.0
    // Overhead over the queries both loops ran, so the source mix is the same.
    val both = plain.samples.filter(x => e2e.contains(x.query))
    val overhead = Loop.median(both.map(x => e2e(x.query).ms)) - Loop.median(both.map(_.ns / 1e6))
    Seq(
      ("graph.generate_s", Loop.median(setups.map(_.generateS)), "s"),
      ("graph.csr_mb", 4.0 * (n + 1 + sv.g.m) / mb, "MB"),
      ("push.ms", Loop.median(push.values.map(_.ms).toSeq), "ms"),
      ("push.edge_pushes", mean(_.edgePushes), "count"),
      ("push.push_ops", mean(_.pushOps), "count"),
      ("push.scan_sweeps", mean(_.sweeps), "count"),
      ("push.queue_edge_pushes", mean(_.queueEdgePushes), "count"),
      ("push.scan_active_frac", ratio(scanOps.toDouble, sweeps.toDouble * n), "ratio"),
      ("push.ns_per_edge_push", Loop.median(push.values.map(x => (x.endNs - x.startNs).toDouble /
        x.counts.toMap.apply("edge_pushes")).toSeq), "ns"),
      ("push.refine_ms", if (refine.isEmpty) 0.0 else Loop.median(refine.values.map(_.ms).toSeq), "ms"),
      ("push.refine_edge_pushes", mean(_.refineEdgePushes), "count"),
      ("walk.count", mean(_.walks), "count"),
      ("walk.ms", if (live) Loop.median(phase2Ms.map(_._2)) else 0.0, "ms"),
      ("walk.ns_per_walk", if (live) Loop.median(phase2Ms.map { case (q, ms) =>
        ms * 1e6 / walksOf(sv.source(q)) }) else 0.0, "ns"),
      ("index.build_s", if (w.indexed) Loop.median(setups.map(_.indexS)) else 0.0, "s"),
      ("index.mb", if (w.indexed) sv.index.sizeBytes / mb else 0.0, "MB"),
      ("index.lookup_ms", if (w.indexed) Loop.median(phase2Ms.map(_._2)) else 0.0, "ms"),
      ("index.hit_ratio", if (w.indexed) ratio(mean(c => c.served - c.markers), mean(_.walks)) else 0.0, "ratio"),
      ("index.live_topups", mean(_.topups), "count"),
      ("index.marker_continuations", mean(_.markers), "count"),
      ("jvm.gc_ms_per_query", ratio(plain.gcMs.toDouble, plain.queries), "ms"),
      ("jvm.alloc_mb_per_query", ratio(plain.allocBytes / mb, plain.queries), "MB"),
      ("batch.cpu_util", ratio(plain.cpuNs.toDouble, w.clients.toDouble * plain.wallNs), "ratio"),
      ("trace.overhead_ms_p50", overhead, "ms"),
    )
  }
}
