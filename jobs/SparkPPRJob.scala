package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.graph.GraphGen
import repro.harness.Harness
import repro.spark.{SparkGraph, SparkPPR, SparkSpeedPPR}

/** spark-submit entrypoint demonstrating the distributed-dataflow versions
  * (SparkPPR / SparkSpeedPPR) on a dataset stand-in.
  *
  * Usage: spark-submit --class repro.jobs.SparkPPRJob repro.jar [dataset] [lambda]
  */
object SparkPPRJob {
  def main(args: Array[String]): Unit = {
    val dsName = args.headOption.getOrElse("dblp-lite")
    val lambda = args.lift(1).map(_.toDouble).getOrElse(1e-4)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-sparkppr")
      .getOrCreate()
    try {
      val ds = GraphGen.byName(dsName)
      val g = ds.generate()
      val s = (0 until g.n).find(g.outDegree(_) > 0).get
      val edges = SparkGraph.toDataFrame(g, spark).cache()
      edges.count()
      val (_, tPow) = Harness.timeSec(SparkPPR.powItr(spark, edges, g.n, s, lambda))
      val (dfPP, tPP) = Harness.timeSec(SparkPPR.powerPush(spark, edges, g.n, s, lambda, g.m))
      val (_, tSp) = Harness.timeSec(SparkSpeedPPR.run(spark, edges, g.n, g.m, s, eps = 0.5))
      println(s"dataset=$dsName n=${g.n} m=${g.m} source=$s lambda=$lambda")
      println(f"SparkPowItr    : $tPow%8.2f s")
      println(f"SparkPowerPush : $tPP%8.2f s")
      println(f"SparkSpeedPPR  : $tSp%8.2f s (eps=0.5)")
      println("top-10 PPR (SparkPowerPush):")
      dfPP.orderBy(org.apache.spark.sql.functions.desc("pi")).limit(10).show()
    } finally spark.stop()
  }
}
