package repro.spark

import java.util.concurrent.ConcurrentLinkedQueue
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession

object SparkJobs {

  /** Runs `body` in its own job group and counts the Spark jobs it started.
    * Listener events arrive in job order, so once a barrier job started
    * after `body` is seen, every job `body` started has been seen too.
    */
  def jobsStarted[A](spark: SparkSession)(body: => A): (A, Int) = {
    val sc = spark.sparkContext
    val jobGroups = new ConcurrentLinkedQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        jobGroups.add(Option(e.properties).map(_.getProperty("spark.jobGroup.id", "")).getOrElse(""))
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("counted", "counted call")
      val out = body
      sc.setJobGroup("barrier", "listener barrier")
      sc.parallelize(Seq(1), 1).count()
      val deadline = System.nanoTime() + 10000000000L
      while (!jobGroups.contains("barrier") && System.nanoTime() < deadline) Thread.sleep(10)
      assert(jobGroups.contains("barrier"))
      (out, jobGroups.toArray.count(_ == "counted"))
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}
