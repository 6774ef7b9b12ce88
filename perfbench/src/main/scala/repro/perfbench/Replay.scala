package repro.perfbench

import scala.collection.mutable
import repro.core.{CpuAssignment, LoadBalancer, QueueingModel}
import repro.core.CpuAssignment.{Assignment, ExecutorInfo}
import repro.core.QueueingModel.ExecutorLoad
import repro.sim._

/** Replays the scheduler's two steps and the intra-executor balancer
  * outside the engine, at a run's executor, shard and cluster shapes, so
  * each is timed on its own. Loads come from the workload's shard weights
  * and steady operator rates, one decision per controller period over the
  * run's duration; each decision starts from the previous one's output, as
  * in the engine. Every result is checked with [[ReplayChecks]].
  */
final class Replay {
  val allocateMs = mutable.ArrayBuffer.empty[Double]
  val assignMs = mutable.ArrayBuffer.empty[Double]
  val naiveAssignMs = mutable.ArrayBuffer.empty[Double]
  var coresAllocated = 0L
  var phiDoublings = 0L
  var migrationCostBytes = 0.0
  var balancerCalls = 0L
  var rebalanceNanos = 0L
  var balancerMoves = 0L
  val violations = mutable.ArrayBuffer.empty[String]
  /** Decisions × executors where Algorithm 1 left a data-intensive executor
    * with cores off its local node. Counted, not failed: `assign` keeps such
    * cores from the previous assignment on some seeds' inputs.
    */
  val offLocal = mutable.ArrayBuffer.empty[String]

  def run(op: SimOp): Unit = op.config.paradigm match {
    case Paradigm.ExecutorCentric(period, _, naive) => replayEC(op, period, naive)
    case Paradigm.ResourceCentric(period) => replayRC(op, period)
    case Paradigm.Static => ()
  }

  private def millisOf[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, (System.nanoTime() - t0) / 1e6)
  }

  /** Input rate of every operator at `t`: external plus upstream output. */
  private def opRates(wl: Workload, t: Double): Array[Double] = {
    val ops = wl.operators
    val idx = ops.map(_.name).zipWithIndex.toMap
    val r = ops.map(o => wl.externalRate(o.name, t)).toArray
    for (j <- ops.indices; (d, sel) <- ops(j).downstream) r(idx(d)) += r(j) * sel
    r
  }

  private def balance(label: String, loads: IndexedSeq[Double], start: IndexedSeq[Int], tasks: Int,
                      theta: Double): IndexedSeq[Int] = {
    val t0 = System.nanoTime()
    val reb = LoadBalancer.rebalance(loads, start, tasks, theta)
    rebalanceNanos += System.nanoTime() - t0
    balancerCalls += 1
    balancerMoves += reb.moves.length
    violations ++= ReplayChecks.balance(label, loads, reb, tasks, theta)
    reb.assignment
  }

  private def replayEC(op: SimOp, period: Double, naive: Boolean): Unit = {
    val cfg = op.config
    val n = cfg.cluster.numNodes
    val totalCores = cfg.cluster.totalCores
    val capacity = IndexedSeq.fill(n)(cfg.cluster.coresPerNode)
    val z = cfg.shardsPerExecutor
    val wl = op.workload()
    val ops = wl.operators
    // Executors in the engine's layout order: operators in dataflow order,
    // local nodes dealt round-robin.
    val execs: IndexedSeq[(Int, Int)] =
      for (j <- ops.indices; e <- 0 until cfg.executorsOf(ops(j).name)) yield (j, e)
    val local = execs.indices.map(_ % n)
    val state = execs.map { case (j, _) => z * ops(j).statePerShardBytes }
    var prev = Assignment.oneCoreLocal(
      execs.indices.map(i => ExecutorInfo(local(i), state(i), 0.0)), n, cfg.cluster.coresPerNode)
    var prevNaive = prev
    val maps = new Array[IndexedSeq[Int]](execs.length)

    for (round <- 0 until (cfg.durationSec / period).toInt) {
      val t = round * period
      val label = f"${op.label} decision at $t%.0f s"
      wl.advanceTo(t)
      val rates = opRates(wl, t)
      val weights = ops.map(o => wl.shardWeights(o.name, cfg.executorsOf(o.name), z))
      val lambda = execs.map { case (j, e) => rates(j) * weights(j).slice(e * z, e * z + z).sum }
      val loads = execs.indices.map { i =>
        ExecutorLoad(lambda(i) * cfg.theta, 1.0 / ops(execs(i)._1).cpuSecPerTuple)
      }
      val (alloc, allocMs) = millisOf(QueueingModel.allocateCores(loads, cfg.latencyTargetSec, totalCores))
      allocateMs += allocMs
      coresAllocated += alloc.cores.sum
      violations ++= ReplayChecks.allocation(label, loads, alloc, cfg.latencyTargetSec, totalCores)

      val target = ReplayChecks.clipToCapacity(alloc.cores, totalCores)
      val infos = execs.indices.map { i =>
        val spec = ops(execs(i)._1)
        ExecutorInfo(local(i), state(i),
          lambda(i) * (spec.tupleBytes + spec.outBytes) / math.max(1, prev.totalOf(i)))
      }
      val ((assignment, phiUsed), ms) = millisOf(CpuAssignment.assign(target, prev, capacity, infos, cfg.phi0))
      assignMs += ms
      assignment match {
        case Some(a) =>
          violations ++= ReplayChecks.assignment(label, a, target, capacity)
          offLocal ++= ReplayChecks.offLocal(a, infos, phiUsed).map(j => s"$label: executor $j")
          phiDoublings += math.round(math.log(phiUsed / cfg.phi0) / math.log(2))
          migrationCostBytes += a.migrationCostFrom(prev, infos)
          prev = a
        case None => violations += s"$label: no assignment for ${target.sum} cores on $totalCores"
      }
      if (naive) {
        val (naiveAssignment, naiveMs) = millisOf(CpuAssignment.assignNaive(target, prevNaive, capacity, infos))
        naiveAssignMs += naiveMs
        naiveAssignment match {
          case Some(a) =>
            violations ++= ReplayChecks.assignment(s"$label (naive)", a, target, capacity)
            prevNaive = a
          case None => violations += s"$label: no naive assignment for ${target.sum} cores on $totalCores"
        }
      }

      for (i <- execs.indices) {
        val tasks = prev.totalOf(i)
        if (tasks >= 2) {
          val (j, e) = execs(i)
          val shardLoads = (0 until z).map(s => rates(j) * weights(j)(e * z + s) * ops(j).cpuSecPerTuple)
          val start =
            if (maps(i) != null && maps(i).max < tasks) maps(i) else IndexedSeq.tabulate(z)(_ % tasks)
          maps(i) = balance(s"$label, executor $i", shardLoads, start, tasks, cfg.theta)
        }
      }
    }
  }

  private def replayRC(op: SimOp, period: Double): Unit = {
    val cfg = op.config
    val wl = op.workload()
    val ops = wl.operators
    // RC runs each operator as one runtime whose tasks are its single-core
    // executors; the engine's layout gives their number.
    val tasks = new StreamSimulator(cfg, op.workload()).layout.map(_._3.head)
    val maps = new Array[IndexedSeq[Int]](ops.length)
    for (round <- 0 until (cfg.durationSec / period).toInt) {
      val t = round * period
      wl.advanceTo(t)
      val rates = opRates(wl, t)
      for (j <- ops.indices if tasks(j) >= 2) {
        val shards = cfg.executorsOf(ops(j).name) * cfg.shardsPerExecutor
        val w = wl.shardWeights(ops(j).name, 1, shards)
        val shardLoads = w.toIndexedSeq.map(_ * rates(j) * ops(j).cpuSecPerTuple)
        val start = if (maps(j) != null) maps(j) else IndexedSeq.tabulate(shards)(_ % tasks(j))
        maps(j) = balance(f"${op.label} ${ops(j).name} check at $t%.0f s", shardLoads, start, tasks(j), cfg.theta)
      }
    }
  }
}

/** Properties of the scheduler's and balancer's outputs, computed apart
  * from `core`. Each returns its violations, empty when it holds.
  */
object ReplayChecks {

  /** Erlang-C probability of waiting in an M/M/k queue at offered load
    * `a`, through the Erlang-B recursion B(i) = a·B(i−1) / (i + a·B(i−1)).
    */
  def erlangC(k: Int, a: Double): Double = {
    var b = 1.0
    var i = 1
    while (i <= k) { b = a * b / (i + a * b); i += 1 }
    k * b / (k - a * (1 - b))
  }

  /** Mean sojourn time of an M/M/k queue; infinite when unstable. */
  def sojournSec(lambda: Double, mu: Double, k: Int): Double =
    if (lambda == 0) 1.0 / mu
    else if (lambda >= k * mu) Double.PositiveInfinity
    else 1.0 / mu + erlangC(k, lambda / mu) / (k * mu - lambda)

  /** Jackson-network mean latency Σ_j λ_j E[T_j] / λ_0, normalised by the
    * largest executor rate as the scheduler's Eq. (1) is.
    */
  def meanLatencySec(loads: IndexedSeq[ExecutorLoad], k: IndexedSeq[Int]): Double = {
    val lambda0 = math.max(loads.map(_.lambda).max, 1e-9)
    loads.indices.map(j => loads(j).lambda * sojournSec(loads(j).lambda, loads(j).mu, k(j))).sum / lambda0
  }

  /** Every executor gets at least ⌊λ/μ⌋ + 1 cores, and the allocation
    * meets the latency target unless it uses every core.
    */
  def allocation(label: String, loads: IndexedSeq[ExecutorLoad], alloc: QueueingModel.Allocation,
                 targetSec: Double, totalCores: Int): Seq[String] = {
    val k = alloc.cores
    if (k.length != loads.length) return Seq(s"$label: ${k.length} allocations for ${loads.length} executors")
    val out = mutable.ArrayBuffer.empty[String]
    for (j <- loads.indices) {
      val min = math.floor(loads(j).lambda / loads(j).mu).toInt + 1
      if (k(j) < min) out += s"$label: executor $j has ${k(j)} cores, below its stable minimum $min"
    }
    if (k.sum < totalCores) {
      val latency = meanLatencySec(loads, k)
      if (latency > targetSec * (1 + 1e-6))
        out += s"$label: E[T] = $latency s misses the $targetSec s target with ${k.sum} of $totalCores cores"
    }
    out.toSeq
  }

  /** Shrinks an allocation that asks for more than the cluster has to
    * exactly its cores, proportionally and keeping one core per executor:
    * the rounding remainder goes to the largest asks, and any overshoot of
    * the one-core floor is taken back from the largest shares.
    */
  def clipToCapacity(cores: IndexedSeq[Int], totalCores: Int): IndexedSeq[Int] = {
    val demand = cores.sum
    if (demand <= totalCores) return cores
    val out = cores.map(k => math.max(1, (k.toLong * totalCores / demand).toInt)).toArray
    val largestFirst = cores.indices.sortBy(j => -cores(j))
    var left = totalCores - out.sum
    var i = 0
    while (left > 0) { out(largestFirst(i % out.length)) += 1; left -= 1; i += 1 }
    while (left < 0) { out(out.indices.maxBy(out(_))) -= 1; left += 1 }
    out.toIndexedSeq
  }

  /** Per-node sums fit the capacity and per-executor sums equal the target. */
  def assignment(label: String, a: Assignment, target: IndexedSeq[Int], capacity: IndexedSeq[Int]): Seq[String] = {
    val x = a.cores
    if (x.length != capacity.length || x.exists(_.length != target.length))
      return Seq(s"$label: assignment shape does not match ${capacity.length} nodes × ${target.length} executors")
    val out = mutable.ArrayBuffer.empty[String]
    for (i <- capacity.indices if x(i).sum > capacity(i))
      out += s"$label: node $i holds ${x(i).sum} cores, over its ${capacity(i)}"
    for (j <- target.indices) {
      val held = capacity.indices.map(x(_)(j)).sum
      if (held != target(j)) out += s"$label: executor $j holds $held cores, not its allocated ${target(j)}"
    }
    out.toSeq
  }

  /** Executors more data-intensive than `phi` that hold cores off their
    * local node, against the computation-locality constraint (§4.2).
    */
  def offLocal(a: Assignment, infos: IndexedSeq[ExecutorInfo], phi: Double): Seq[Int] =
    infos.indices.filter { j =>
      infos(j).dataIntensity > phi &&
        a.cores.indices.exists(i => i != infos(j).localNode && a.cores(i)(j) > 0)
    }

  /** The reported δ = max/mean task load matches the assignment's, and
    * either δ ≤ θ or no single shard move from the most- to the
    * least-loaded task lowers the peak load.
    */
  def balance(label: String, shardLoads: IndexedSeq[Double], reb: LoadBalancer.Rebalance, tasks: Int,
              theta: Double): Seq[String] = {
    val a = reb.assignment
    if (a.length != shardLoads.length || a.exists(t => t < 0 || t >= tasks))
      return Seq(s"$label: assignment does not map ${shardLoads.length} shards to $tasks tasks")
    val load = new Array[Double](tasks)
    for (s <- a.indices) load(a(s)) += shardLoads(s)
    val total = load.sum
    val peak = load.max
    val delta = if (total <= 0) 1.0 else peak / (total / tasks)
    val out = mutable.ArrayBuffer.empty[String]
    if (math.abs(delta - reb.imbalance) > 1e-9 * delta)
      out += s"$label: reported imbalance ${reb.imbalance}, recomputed $delta"
    if (delta > theta) {
      val hot = load.indexOf(peak)
      val cold = load.indices.minBy(load(_))
      val others = load.indices.filter(t => t != hot && t != cold).map(load(_)).maxOption.getOrElse(0.0)
      val improving = a.indices.exists { s =>
        a(s) == hot && math.max(others, math.max(peak - shardLoads(s), load(cold) + shardLoads(s))) <
          peak * (1 - 1e-12)
      }
      if (improving)
        out += s"$label: imbalance $delta > θ = $theta although a single move would lower the peak"
    }
    out.toSeq
  }
}
