package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal
import repro.sim.{Paradigm, SimResult, StreamSimulator}

/** Benchmark entry point: one fresh JVM runs one workload.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--cold-only]
  * }}}
  *
  * It builds the workload's configurations (set-up), prints `PASS_START`,
  * then runs whole passes until `--seconds` have gone by: a cold first pass,
  * [[Main.SettlePasses]] pass for the JIT to settle, then warm passes (at
  * least [[Main.MinWarmPasses]]); `--cold-only` stops after the cold pass.
  * One operation is one simulation run plus its checks. With `--trace 1`
  * each warm pass is followed by a traced pass of the same inputs, and the
  * scheduler and balancer replay runs after them. The last line is
  * `RESULT <json>` with the metrics of the mode.
  *
  * Passes alternate between the workload seeds [[Main.workloadSeeds]] of
  * `--seed`, and every metric is the mean over those seeds of its value for
  * one seed. How much work a pass is depends on the seed (on `sse-table2`
  * warm passes ranged over ±20% across seeds 1–10), so one seed per run
  * made the runs of different seeds disagree by that much.
  */
object Main {

  val SettlePasses = 1
  val MinWarmPasses = 2

  /** The workload seeds a run alternates between. */
  def workloadSeeds(seed: Long): IndexedSeq[Long] = IndexedSeq(seed, seed + 1000003L)

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, coldOnly: Boolean)

  def parse(args: Array[String]): Opts = {
    val kv = mutable.Map.empty[String, String]
    var coldOnly = false
    var i = 0
    while (i < args.length) {
      args(i) match {
        case "--cold-only" => coldOnly = true; i += 1
        case k if k.startsWith("--") && i + 1 < args.length => kv(k.drop(2)) = args(i + 1); i += 2
        case other => throw new IllegalArgumentException(s"unexpected argument $other")
      }
    }
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val o = Opts(need("workload"), need("seed").toLong, need("seconds").toDouble,
      kv.getOrElse("trace", "0") == "1", coldOnly)
    require(o.seconds > 0, s"--seconds must be positive: ${o.seconds}")
    o
  }

  /** One simulation run of a pass. `result` is null when the run threw. */
  final class OpRun(val op: SimOp, val result: SimResult, val nanos: Long, val runNanos: Long,
                    val allocBytes: Long, val trace: TracingWorkload)

  /** One pass over the simulations of workload seed number `seedIndex`. */
  final class Pass(val seedIndex: Int, val runs: IndexedSeq[OpRun], val cpuSeconds: Double,
                   val gcSeconds: Double) {
    def seconds: Double = runs.map(_.nanos).sum / 1e9
    def allocMb: Double = runs.map(_.allocBytes).sum / 1e6
    def ok: Boolean = runs.forall(_.result != null)
  }

  def main(args: Array[String]): Unit = {
    val opts = try parse(args) catch {
      case e: IllegalArgumentException => System.err.println(e.getMessage); sys.exit(2)
    }
    val scenario = Scenarios.byName(opts.workload).getOrElse {
      System.err.println(s"unknown workload ${opts.workload}; one of ${Scenarios.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val opsBySeed = workloadSeeds(opts.seed).map(scenario.ops)
    println("PASS_START")
    System.out.flush()
    new Main(scenario, opsBySeed, opts).runAll()
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile; 0 for no samples. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = q * (s.length - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.length - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  /** The mean over workload seeds of `f` applied to each seed's passes. */
  def perSeed(passes: Seq[Pass])(f: Seq[Pass] => Double): Double = {
    val groups = passes.groupBy(_.seedIndex).values.toSeq
    if (groups.isEmpty) 0.0 else groups.map(f).sum / groups.length
  }

  /** A flat JSON object of numbers; keys keep their insertion order. */
  def metricsJson(correct: Boolean, attempted: Long, failed: Long,
                  metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (name, value, unit) =>
      require(!value.isNaN && !value.isInfinite, s"metric $name is $value")
      s""""$name": {"value": $value, "unit": "$unit"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}

final class Main(scenario: Scenario, opsBySeed: IndexedSeq[IndexedSeq[SimOp]], opts: Main.Opts) {
  import Main._

  private var attempted = 0L
  private var failed = 0L
  private val violations = mutable.ArrayBuffer.empty[String]
  private val firstResults = opsBySeed.map(ops => new Array[SimResult](ops.length))

  private def isElasticutor(op: SimOp) = op.config.paradigm match {
    case p: Paradigm.ExecutorCentric => !p.naive
    case _ => false
  }
  private def isNaive(op: SimOp) = op.config.paradigm match {
    case p: Paradigm.ExecutorCentric => p.naive
    case _ => false
  }

  private def runOp(seedIndex: Int, i: Int, traced: Boolean): OpRun = {
    val op = opsBySeed(seedIndex)(i)
    attempted += 1
    try {
      val a0 = Alloc.bytes()
      val t0 = System.nanoTime()
      val base = op.workload()
      val wl = if (traced) new TracingWorkload(base) else base
      val sim = new StreamSimulator(op.config, wl)
      val t1 = System.nanoTime()
      val r = sim.run()
      val t2 = System.nanoTime()
      val alloc = Alloc.bytes() - a0
      violations ++= Checks.run(op.label, op.config, base, r)
      val first = firstResults(seedIndex)
      if (first(i) == null) first(i) = r
      else violations ++= Checks.identical(op.label, first(i), r)
      new OpRun(op, r, t2 - t0, t2 - t1, alloc, wl match { case t: TracingWorkload => t; case _ => null })
    } catch {
      case NonFatal(e) =>
        failed += 1
        System.err.println(s"${op.label} failed: $e")
        new OpRun(op, null, 0L, 0L, 0L, null)
    }
  }

  private val threadMx = ManagementFactory.getThreadMXBean
  private def gcSeconds(): Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum / 1e3

  private def runPass(seedIndex: Int, traced: Boolean): Pass = {
    val cpu0 = threadMx.getCurrentThreadCpuTime
    val gc0 = gcSeconds()
    val runs = opsBySeed(seedIndex).indices.map(runOp(seedIndex, _, traced))
    val pass = new Pass(seedIndex, runs, (threadMx.getCurrentThreadCpuTime - cpu0) / 1e9, gcSeconds() - gc0)
    if (pass.ok) violations ++= scenario.passChecks(opsBySeed(seedIndex), pass.runs.map(_.result))
    pass
  }

  def runAll(): Unit = {
    val start = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    val seeds = opsBySeed.length
    // The cold-only JVM takes the second seed, so a run's two cold passes
    // cover both seeds.
    val cold = runPass(if (opts.coldOnly) 1 % seeds else 0, traced = false)
    val warm = mutable.ArrayBuffer.empty[Pass]
    val traced = mutable.ArrayBuffer.empty[Pass]
    if (!opts.coldOnly) {
      for (k <- 1 to SettlePasses) runPass(k % seeds, traced = false)
      while (warm.length < MinWarmPasses || elapsed < opts.seconds) {
        val s = warm.length % seeds
        warm += runPass(s, traced = false)
        if (opts.trace) traced += runPass(s, traced = true)
      }
    }
    val metrics =
      if (opts.coldOnly) Seq(("cold_pass_s", cold.seconds, "s"))
      else if (opts.trace) layerMetrics(warm.toSeq, traced.toSeq)
      else endToEndMetrics(cold, warm.toSeq)

    violations.take(20).foreach(v => System.err.println(s"CHECK FAILED: $v"))
    if (violations.length > 20) System.err.println(s"... ${violations.length - 20} more check failures")
    val rt = ManagementFactory.getRuntimeMXBean
    println(s"# jvm: ${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}")
    println(s"# jvm flags: ${rt.getInputArguments.toArray.mkString(" ")}")
    println(s"# nproc: ${Runtime.getRuntime.availableProcessors}")
    println(s"# workload seeds: ${workloadSeeds(opts.seed).mkString(" ")}")
    def show(ps: Seq[Pass]) = ps.map(p =>
      f"${p.seconds}%.3f (seed ${p.seedIndex}, cpu ${p.cpuSeconds}%.3f, gc ${p.gcSeconds}%.3f, ${p.allocMb}%.0f MB)")
      .mkString(" ")
    println(s"# pass seconds: cold ${show(Seq(cold))}; warm ${show(warm.toSeq)}" +
      (if (opts.trace) s"; traced ${show(traced.toSeq)}" else ""))
    for ((op, r) <- opsBySeed(0).zip(firstResults(0)) if r != null) {
      val warmSched = schedulerMillis(warm.toSeq, _ eq op)
      println(f"# row ${op.label}: throughput ${r.throughput}%.1f t/s, mean latency ${r.meanLatencySec * 1e3}%.2f ms, " +
        f"migration ${r.migrationRateBytesPerSec / 1e6}%.2f MB/s, remote ${r.remoteRateBytesPerSec / 1e6}%.2f MB/s, " +
        f"${r.moves.length} moves, ${r.repartitions.length} repartitions, " +
        f"scheduler p50 ${median(warmSched)}%.3f ms over ${warmSched.length} warm decisions")
    }
    println("RESULT " + metricsJson(violations.isEmpty, attempted, failed, metrics))
  }

  private def schedulerMillis(passes: Seq[Pass], which: SimOp => Boolean): Seq[Double] =
    for (p <- passes; r <- p.runs if r.result != null && which(r.op); ms <- r.result.schedulerMillis) yield ms

  /** A warm pass's time, robust to a slow spell in a few passes: the sum
    * over its runs of each run's median time across the warm passes.
    */
  private def medianPassSeconds(passes: Seq[Pass]): Double = perSeed(passes) { ps =>
    ps.head.runs.indices.map(i => median(ps.map(_.runs(i).nanos / 1e9))).sum
  }

  private def endToEndMetrics(cold: Pass, warm: Seq[Pass]): Seq[(String, Double, String)] = Seq(
    ("cold_pass_s", cold.seconds, "s"),
    ("pass_s", medianPassSeconds(warm), "s"),
    ("alloc_mb", perSeed(warm)(ps => median(ps.map(_.allocMb))), "MB"),
    ("sched_ms_p50", perSeed(warm)(ps => median(schedulerMillis(ps, isElasticutor))), "ms"))

  private def layerMetrics(plain: Seq[Pass], traced: Seq[Pass]): Seq[(String, Double, String)] = {
    def perPass(f: Pass => Double): Double = perSeed(traced)(ps => median(ps.map(f)))
    def sumRuns(p: Pass)(f: OpRun => Double): Double = p.runs.filter(_.result != null).map(f).sum
    def sumTrace(p: Pass)(f: TracingWorkload => Double): Double = sumRuns(p)(r => f(r.trace))

    val runS = perPass(p => sumRuns(p)(_.runNanos / 1e9))
    val selfS = perPass(p => sumRuns(p)(r =>
      (r.runNanos - r.trace.callbackNanos) / 1e9 - r.result.schedulerMillis.sum / 1e3))
    val ticks = perPass(p => sumRuns(p)(r => math.round(r.op.config.durationSec / r.op.config.tickSec).toDouble))

    val ec = schedulerMillis(traced, isElasticutor)
    // The 90th percentile needs ten samples beyond it; with fewer, report
    // the highest percentile that has them, and under forty the median.
    val tailQ = if (ec.length >= 100) 0.9 else if (ec.length >= 40) 1.0 - 10.0 / ec.length else 0.5

    val replay = new Replay
    opsBySeed.flatten.foreach(replay.run)
    violations ++= replay.violations
    if (replay.offLocal.nonEmpty)
      println(s"# off-local: ${replay.offLocal.length} data-intensive executor placements off the local node, " +
        s"first ${replay.offLocal.head}")

    Seq(
      ("engine.run_s", runS, "s"),
      ("engine.self_s", selfS, "s"),
      ("engine.ticks", ticks, "count"),
      ("engine.us_per_tick", runS / ticks * 1e6, "us"),
      ("engine.alloc_mb", perPass(_.allocMb), "MB"),
      ("workload.advance_calls", perPass(sumTrace(_)(_.advanceCalls.toDouble)), "count"),
      ("workload.advance_ms", perPass(sumTrace(_)(_.advanceNanos / 1e6)), "ms"),
      ("workload.distribution_changes", perPass(sumTrace(_)(_.distributionChanges.toDouble)), "count"),
      ("workload.shard_weights_calls", perPass(sumTrace(_)(_.shardWeightsCalls.toDouble)), "count"),
      ("workload.shard_weights_ms", perPass(sumTrace(_)(_.shardWeightsNanos / 1e6)), "ms"),
      ("workload.external_rate_calls", perPass(sumTrace(_)(_.externalRateCalls.toDouble)), "count"),
      ("workload.external_rate_ms", perPass(sumTrace(_)(_.externalRateNanos / 1e6)), "ms"),
      ("workload.alloc_mb", perPass(sumTrace(_)(_.allocatedBytes / 1e6)), "MB"),
      ("scheduler.decisions", perPass(sumRuns(_)(r => if (isElasticutor(r.op)) r.result.schedulerMillis.length else 0)), "count"),
      ("scheduler.ms_total", perPass(sumRuns(_)(r => if (isElasticutor(r.op)) r.result.schedulerMillis.sum else 0)), "ms"),
      ("scheduler.ms_p90", quantile(ec, tailQ), "ms"),
      ("scheduler.p90_samples", ec.length.toDouble, "count"),
      ("scheduler.naive_ms_p50", median(schedulerMillis(traced, isNaive)), "ms"),
      ("queueing.allocate_ms_p50", median(replay.allocateMs.toSeq), "ms"),
      ("queueing.cores_allocated", replay.coresAllocated.toDouble / math.max(1, replay.allocateMs.length), "count"),
      ("cpu_assign.assign_ms_p50", median(replay.assignMs.toSeq), "ms"),
      ("cpu_assign.naive_ms_p50", median(replay.naiveAssignMs.toSeq), "ms"),
      ("cpu_assign.phi_doublings", replay.phiDoublings.toDouble, "count"),
      ("cpu_assign.migration_cost_mb", replay.migrationCostBytes / 1e6, "MB"),
      ("cpu_assign.off_local", replay.offLocal.length.toDouble, "count"),
      ("balancer.calls", replay.balancerCalls.toDouble, "count"),
      ("balancer.rebalance_ms_total", replay.rebalanceNanos / 1e6, "ms"),
      ("balancer.moves", replay.balancerMoves.toDouble, "count"),
      ("protocol.ec_moves", perPass(sumRuns(_)(_.result.moves.length)), "count"),
      ("protocol.ec_inter_node_moves", perPass(sumRuns(_)(_.result.moves.count(_.interNode))), "count"),
      ("protocol.rc_repartitions", perPass(sumRuns(_)(_.result.repartitions.length)), "count"),
      ("protocol.migrated_mb", perPass(sumRuns(_)(_.result.perSecond.map(_.migrationBytes).sum / 1e6)), "MB"),
      ("protocol.remote_mb", perPass(sumRuns(_)(_.result.perSecond.map(_.remoteBytes).sum / 1e6)), "MB"),
      ("trace.overhead_s", medianPassSeconds(traced) - medianPassSeconds(plain), "s"))
  }
}
