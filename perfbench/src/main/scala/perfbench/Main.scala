package perfbench

import java.io.PrintWriter
import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger}
import scala.jdk.CollectionConverters._
import repro.core.PPRResult

/** SSPPR query benchmark, one workload per JVM (see README.md):
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Sets the workload up `SetupReps` times, picks the query sources and
  * their references from the seed, warms up, then runs a closed loop for
  * `--seconds`. With `--trace 0` it prints the end-to-end metrics; with
  * `--trace 1` it splits the time between an untraced and a traced loop and
  * prints the per-layer metrics. The last line of stdout is the result
  * object; the line before it records the environment and sample counts.
  */
object Main {
  val SetupReps = 5
  val WarmupS = 2.0
  /** The run reports a failure and exits if it is still going after this. */
  val WatchdogS = 160.0

  private val attempted = new AtomicInteger
  private val failed = new AtomicInteger
  private val problems = new AtomicInteger
  private val failures = new ConcurrentLinkedQueue[String]
  private val printed = new AtomicBoolean

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val w = Workload.all.find(w => opts.get("workload").contains(w.name)).getOrElse {
      System.err.println(s"usage: --workload <${Workload.all.map(_.name).mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val seed = opts.getOrElse("seed", "1").toLong
    val seconds = opts.getOrElse("seconds", "10").toDouble
    val trace = opts.getOrElse("trace", "0") == "1"
    startWatchdog()

    // Only the last set-up stays reachable, so resident_mb sees one copy.
    var setup: Served.Setup = null
    val setups = (1 to SetupReps).map { _ => setup = null; setup = Served.setUp(w); setup.times }
    val residentMb = heapAfterGcMb()
    val sv = new Served(w, setup.g, setup.index, seed)
    val selfTest = sv.selfTest()
    if (selfTest != null) fail(s"checker self-test: $selfTest", query = false)

    // Warm-up queries use their own indices, so the timed sequence always
    // starts at query 0.
    val warm = Loop.closed(w.clients, 1 << 30, WarmupS)((i, _) => query(sv, i))
    val env = environment(w, sv, seed, seconds, trace)
    if (warm.timedOut > 0) abort(env, warm.timedOut)

    val metrics: Seq[(String, Double, String)] = if (!trace) {
      val r = Loop.closed(w.clients, 0, seconds)((i, _) => query(sv, i))
      if (r.timedOut > 0) abort(env, r.timedOut)
      val ms = r.samples.map(_.ns / 1e6)
      detail(env, Seq("query_ms_p50" -> r.queries, "query_ms_p90" -> r.queries,
          "above_p90" -> ms.count(_ > Loop.percentile(ms, 0.9)), "qps" -> r.queries,
          "setup_s" -> SetupReps, "resident_mb" -> 1, "l1_mean" -> r.queries, "warmup" -> warm.queries),
        "max_rel_err" -> r.samples.map(_.relErr).filterNot(_.isNaN).maxOption.getOrElse(0.0))
      Seq(
        ("query_ms_p50", Loop.median(ms), "ms"),
        ("query_ms_p90", Loop.percentile(ms, 0.9), "ms"),
        ("qps", r.queries / (r.wallNs / 1e9), "1/s"),
        ("setup_s", Loop.median(setups.map(_.totalS)), "s"),
        ("resident_mb", residentMb, "MB"),
        ("l1_mean", r.samples.map(_.l1).sum / r.queries, "1"),
      )
    } else {
      val cs = Layers.allCounts(sv)
      val plain = Loop.closed(w.clients, 0, seconds / 2)((i, _) => query(sv, i))
      val traced = Loop.closed(w.clients, 0, seconds / 2)((i, spans) =>
        guarded(i)(Layers.tracedQuery(sv, i, spans, check(sv, _, _, _))))
      if (plain.timedOut + traced.timedOut > 0) abort(env, plain.timedOut + traced.timedOut)
      val out = Paths.get(sys.props.getOrElse("perfbench.out", "."), s"trace-${w.name}-seed$seed.jsonl")
      // Set-up spans carry negative ids, one per repetition.
      val setupSpans = setups.zipWithIndex.flatMap { case (t, k) =>
        Span(-1 - k, "graph.GraphGen.generate", "setup", t.startNs, t.generatedNs) +:
          (if (w.indexed) Seq(Span(-1 - k, "core.WalkIndex.buildSpeedPPR", "setup", t.generatedNs, t.readyNs)) else Nil)
      }
      writeSpans(out, setupSpans ++ traced.spans)
      detail(env, Seq("untraced_queries" -> plain.queries, "traced_queries" -> traced.queries,
        "distinct_sources" -> cs.length, "setup" -> SetupReps), "spans_file" -> out.toString)
      Layers.metrics(sv, setups, cs, plain, traced)
    }
    result(metrics)
    sys.exit(0)
  }

  /** One untraced query: the call alone is timed; the check follows it. */
  private def query(sv: Served, i: Int): Sample = guarded(i) {
    val (res, a, b) = Loop.timed(sv.run(i))
    check(sv, i, res, b - a)
  }

  /** Counts query i as attempted, and as failed if it throws. */
  private def guarded(i: Int)(body: => Sample): Sample = {
    attempted.incrementAndGet()
    try body catch { case e: Throwable => fail(s"query $i threw $e"); null }
  }

  private def check(sv: Served, i: Int, res: PPRResult, ns: Long): Sample = {
    val v = sv.check(i, res)
    if (!v.ok) fail(s"query $i (source ${sv.source(i)}): ${v.failure}")
    Sample(i, ns, v.l1, v.relErr)
  }

  /** Records why the run is not correct; a failed query also counts in `failed`. */
  private def fail(msg: String, query: Boolean = true): Unit = {
    if (query) failed.incrementAndGet()
    problems.incrementAndGet()
    if (failures.size < 5) { failures.add(msg); System.err.println(s"FAILED $msg") }
  }

  private def heapAfterGcMb(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def environment(w: Workload, sv: Served, seed: Long, seconds: Double, trace: Boolean): String = {
    val rt = ManagementFactory.getRuntimeMXBean
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName)
    Seq(
      "workload" -> str(w.name), "seed" -> seed.toString, "seconds" -> seconds.toString,
      "trace" -> trace.toString, "clients" -> w.clients.toString,
      "git_sha" -> str(sys.props.getOrElse("perfbench.gitSha", "unknown")),
      "source_sha256" -> str(sys.props.getOrElse("perfbench.sourceSha", "unknown")),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "jvm" -> str(s"${sys.props("java.vm.name")} ${sys.props("java.vm.version")}"),
      "jvm_args" -> rt.getInputArguments.asScala.map(str).mkString("[", ", ", "]"),
      "max_heap_mb" -> (Runtime.getRuntime.maxMemory / (1024 * 1024)).toString,
      "gc" -> gcs.map(str).mkString("[", ", ", "]"),
      "dataset" -> str(Workload.Dataset), "graph_seed" -> Workload.GraphSeed.toString,
      "n" -> sv.g.n.toString, "m" -> sv.g.m.toString,
      "sources" -> sv.sources.mkString("[", ", ", "]"),
    ).map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
  }

  private def str(s: String): String =
    "\"" + s.flatMap {
      case '"' => "\\\""; case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c => c.toString
    } + "\""

  private def num(d: Double): String = if (d.isNaN || d.isInfinite) "0" else d.toString

  /** The line before the result: environment, sample counts, and extras. */
  private def detail(env: String, samples: Seq[(String, Int)], extra: (String, Any)*): Unit = {
    val fields = Seq("env" -> env,
      "samples" -> samples.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}"),
      "failed_frac" -> num(failed.get.toDouble / math.max(1, attempted.get)),
      "failures" -> failures.asScala.map(str).mkString("[", ", ", "]")) ++
      extra.map { case (k, v: Double) => k -> num(v); case (k, v) => k -> str(v.toString) }
    println(fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}"))
  }

  private def result(metrics: Seq[(String, Double, String)]): Unit = {
    if (!printed.compareAndSet(false, true)) return
    val bad = metrics.filter { case (_, v, _) => v.isNaN || v.isInfinite }
    bad.foreach { case (k, _, _) => fail(s"metric $k has no value", query = false) }
    val ms = metrics.map { case (k, v, u) => s"${str(k)}: {${str("value")}: ${num(v)}, ${str("unit")}: ${str(u)}}" }
    println(s"""{"correct": ${problems.get == 0}, "attempted": ${math.max(1, attempted.get)}, """ +
      s""""failed": ${if (attempted.get == 0) 1 else failed.get}, "metrics": ${ms.mkString("{", ", ", "}")}}""")
    System.out.flush()
  }

  /** Ends a run whose `stuck` queries never returned: their threads cannot be stopped. */
  private def abort(env: String, stuck: Int): Nothing = {
    (1 to stuck).foreach(_ => fail(s"query still running ${Loop.QueryTimeoutS} s after the deadline"))
    detail(env, Nil)
    result(Nil)
    Runtime.getRuntime.halt(0)
    throw new IllegalStateException("unreachable")
  }

  private def startWatchdog(): Unit = {
    val t = new Thread(() => {
      Thread.sleep((WatchdogS * 1000).toLong)
      fail(s"run still going after $WatchdogS s", query = false)
      result(Nil)
      Runtime.getRuntime.halt(0)
    }, "watchdog")
    t.setDaemon(true)
    t.start()
  }

  private def writeSpans(path: java.nio.file.Path, spans: Seq[Span]): Unit = {
    Files.createDirectories(path.toAbsolutePath.getParent)
    val t0 = if (spans.isEmpty) 0L else spans.map(_.startNs).min
    val out = new PrintWriter(Files.newBufferedWriter(path))
    try spans.sortBy(_.startNs).foreach { s =>
      val counts = s.counts.map { case (k, v) => s"${str(k)}: ${num(v)}" }.mkString("{", ", ", "}")
      out.println(s"""{"query": ${s.query}, "name": ${str(s.name)}, "parent": ${str(s.parent)}, """ +
        s""""start_ns": ${s.startNs - t0}, "end_ns": ${s.endNs - t0}, "counts": $counts}""")
    } finally out.close()
  }
}
