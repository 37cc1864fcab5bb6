package repro.core

import repro.graph.CSRGraph

/** The FIFO threshold push of Algorithm 2, shared by every queue-driven
  * solver:
  *
  *  - FIFO-FwdPush drains it to completion;
  *  - PowerPush's queue phase (Algorithm 3, lines 7-13) stops it once the
  *    queue outgrows the scan threshold or Σr ≤ λ.
  *
  * Pushes are asynchronous: a push on v uses v's *current* residue, which may
  * already include mass pushed earlier in the same conceptual iteration.
  * Active test: r(s,v) > d_v·r_max; a dead end (d_v = 0) is hence active
  * whenever its residue is positive, and its push forwards the whole (1−α)
  * share to the source s (§2's conceptual dead-end edge).
  */
object PushKernel {

  /** Int FIFO ring buffer of fixed capacity. The push loops queue a node at
    * most once (`inQueue`), so capacity n always suffices.
    */
  final class IntQueue(capacity: Int) {
    private val buf = new Array[Int](capacity)
    private var head = 0
    private var count = 0
    def size: Int = count
    def isEmpty: Boolean = count == 0
    def append(x: Int): Unit = {
      require(count < buf.length, "append on full queue")
      buf((head + count) % buf.length) = x
      count += 1
    }
    def pop(): Int = {
      require(count > 0, "pop on empty queue")
      val x = buf(head); head = (head + 1) % buf.length; count -= 1; x
    }
  }

  /** The push threshold for an ℓ1 target λ: r_max = λ/m (Eq. 7). An edgeless
    * graph divides by 1 rather than 0: with r_max = ∞ its dead-end source
    * would never be active again, and Σr would stay above λ.
    */
  def rMaxFor(lambda: Double, m: Long): Double = lambda / math.max(m, 1L)

  /** Pop and push queued nodes until the queue is empty, holds more than
    * `cap` nodes, or the running Σr is ≤ `stopSum`. Mutates `pi`, `r`, `q`,
    * `inQueue` and `stats` in place. Both callers start from r = e_s, so Σr
    * is 1 on entry; the return value is Σr on exit, maintained by
    * subtracting each α-share moved into `pi`.
    *
    * @param trace if non-null, (edgePushes, Σr) recorded every `traceEvery`
    *              edge pushes (the paper samples every 4m)
    */
  def drain(g: CSRGraph, s: Int, pi: Array[Double], r: Array[Double],
            q: IntQueue, inQueue: Array[Boolean], rMax: Double, alpha: Double,
            stats: Stats,
            cap: Int = Int.MaxValue, stopSum: Double = Double.NegativeInfinity,
            trace: Trace = null, traceEvery: Long = 0L): Double = {
    var sum = 1.0
    var nextTrace = stats.edgePushes + traceEvery
    while (!q.isEmpty && q.size <= cap && sum > stopSum) {
      val v = q.pop(); inQueue(v) = false
      val rv = r(v)
      val d = g.outDegree(v)
      // The pop may be stale (v was appended when active but is not any
      // more only if r can shrink — it cannot between append and pop), so
      // a popped node is pushed unconditionally, exactly as in Algorithm 2.
      pi(v) += alpha * rv
      sum -= alpha * rv
      // Zero v's residue *before* distributing so a self-receive (dead-end
      // source, or a self loop) is not wiped by the reset.
      r(v) = 0.0
      if (d == 0) {
        r(s) += (1.0 - alpha) * rv
        stats.edgePushes += 1
        if (Common.isActive(r(s), g.outDegree(s), rMax) && !inQueue(s)) { q.append(s); inQueue(s) = true }
      } else {
        val share = (1.0 - alpha) * rv / d
        g.foreachOut(v) { u =>
          r(u) += share
          if (Common.isActive(r(u), g.outDegree(u), rMax) && !inQueue(u)) { q.append(u); inQueue(u) = true }
        }
        stats.edgePushes += d
      }
      stats.pushOps += 1
      if (trace != null && traceEvery > 0 && stats.edgePushes >= nextTrace) {
        trace.record(stats.edgePushes, sum)
        nextTrace += traceEvery
      }
    }
    sum
  }
}
