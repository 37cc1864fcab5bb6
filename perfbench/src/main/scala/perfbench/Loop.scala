package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicInteger
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** A timed call into one layer. Spans of one query share its id; `counts`
  * are the layer's counters read at the same point.
  */
final case class Span(query: Int, name: String, parent: String,
                      startNs: Long, endNs: Long, counts: Seq[(String, Double)] = Nil) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** Query i answered: its end-to-end latency and how far it was off. */
final case class Sample(query: Int, ns: Long, l1: Double, relErr: Double)

/** What one closed loop measured. `cpuNs` and `allocBytes` are summed over
  * the client threads, `gcMs` over all collectors, for the loop's wall time.
  */
final class LoopResult(val samples: Seq[Sample], val spans: Seq[Span], val wallNs: Long,
                       val cpuNs: Long, val allocBytes: Long, val gcMs: Long, val timedOut: Int) {
  def queries: Int = samples.length
}

object Loop {
  /** A query still running this long after the loop's deadline has failed. */
  val QueryTimeoutS = 30.0

  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def gcMs(): Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum

  /** Closed loop: `clients` threads each take the next query index from a
    * shared counter starting at `first`, and call `query` until `seconds`
    * have passed; a query started before the deadline runs to its end.
    * `query` returns null for a query that failed without an answer.
    */
  def closed(clients: Int, first: Int, seconds: Double)
            (query: (Int, ArrayBuffer[Span]) => Sample): LoopResult = {
    val next = new AtomicInteger(first)
    val workers = Array.fill(clients)(new Worker)
    val gc0 = gcMs()
    val t0 = System.nanoTime()
    val deadline = t0 + (seconds * 1e9).toLong
    val threads = workers.zipWithIndex.map { case (w, c) =>
      val t = new Thread(() => {
        val cpu0 = mx.getCurrentThreadCpuTime
        val alloc0 = mx.getCurrentThreadAllocatedBytes
        while (System.nanoTime() < deadline) {
          val s = query(next.getAndIncrement(), w.spans)
          if (s != null) w.samples += s
        }
        w.cpuNs = mx.getCurrentThreadCpuTime - cpu0
        w.allocBytes = mx.getCurrentThreadAllocatedBytes - alloc0
      }, s"client-$c")
      t.setDaemon(true)
      t.start()
      t
    }
    val hardStop = deadline + (QueryTimeoutS * 1e9).toLong
    threads.foreach(t => t.join(math.max(1L, (hardStop - System.nanoTime()) / 1000000L)))
    val wall = System.nanoTime() - t0
    val stuck = threads.count(_.isAlive)
    val done = if (stuck > 0) Nil else workers.toSeq
    new LoopResult(done.flatMap(_.samples), done.flatMap(_.spans), wall,
      done.map(_.cpuNs).sum, done.map(_.allocBytes).sum, gcMs() - gc0, stuck)
  }

  private final class Worker {
    val samples = ArrayBuffer.empty[Sample]
    val spans = ArrayBuffer.empty[Span]
    var cpuNs = 0L
    var allocBytes = 0L
  }

  /** Runs `f` and returns its result with the start and end times. */
  @inline def timed[T](f: => T): (T, Long, Long) = {
    val a = System.nanoTime()
    val r = f
    (r, a, System.nanoTime())
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 0.5)

  /** Nearest rank: the smallest sample with at least a `p` share of the
    * samples at or below it.
    */
  def percentile(xs: Seq[Double], p: Double): Double =
    if (xs.isEmpty) Double.NaN
    else { val s = xs.sorted; s(math.max(0, math.ceil(p * s.length).toInt - 1)) }
}
