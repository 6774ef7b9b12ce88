package repro.perfbench

import scala.collection.mutable
import repro.sim._

/** Checks on simulated outputs. Each one is a property of the result or an
  * independent recomputation from the configuration, never a stored copy of
  * an earlier output. Each returns its violations, empty when it holds.
  */
object Checks {

  /** Slack for sums of doubles compared with a bound. */
  private val Rel = 1e-9

  /** CPU-seconds the whole pipeline spends per tuple entering at `entry`:
    * each operator's cost, weighted by the tuples it receives per entry
    * tuple (the product of selectivities along the dataflow, which lists
    * upstream operators first).
    */
  def cpuSecPerEntryTuple(ops: IndexedSeq[OperatorSpec], entry: String): Double = {
    val perEntry = mutable.Map(entry -> 1.0).withDefaultValue(0.0)
    for (op <- ops; (d, sel) <- op.downstream) perEntry(d) += perEntry(op.name) * sel
    ops.map(op => perEntry(op.name) * op.cpuSecPerTuple).sum
  }

  /** All per-run checks of one simulation run. */
  def run(label: String, config: SimConfig, workload: Workload, r: SimResult): Seq[String] =
    conservation(label, r) ++
      capacity(label, r, workload.operators, workload.throughputOp, config.cluster) ++
      movePhysics(label, r, workload.operators, config.cluster, workload.upstreamExecutorCount)

  /** The entry operator never completes more tuples than were offered. */
  def conservation(label: String, r: SimResult): Seq[String] = {
    val completed = r.perSecond.map(_.throughput).sum
    val offered = r.perSecond.map(_.offered).sum
    if (completed <= offered * (1 + Rel)) Nil
    else Seq(f"$label: completed $completed%.3f tuples, more than the $offered%.3f offered")
  }

  /** Throughput × per-order CPU cost fits in the cluster's cores. */
  def capacity(label: String, r: SimResult, ops: IndexedSeq[OperatorSpec], entry: String,
               cluster: ClusterSpec): Seq[String] = {
    val busyCores = r.throughput * cpuSecPerEntryTuple(ops, entry)
    if (busyCores <= cluster.totalCores * (1 + Rel)) Nil
    else Seq(f"$label: throughput ${r.throughput}%.1f t/s needs $busyCores%.3f cores, " +
      s"cluster has ${cluster.totalCores}")
  }

  /** Shard-move and repartition physics (§3.3, §5.1):
    *  - an intra-node move carries no state and takes no migrate time;
    *  - an inter-node move carries its operator's per-shard state and takes
    *    latency + bytes / bandwidth to migrate;
    *  - every synchronisation takes at least the fixed control overhead;
    *  - RC's routing update is a round trip per upstream executor, twice.
    */
  def movePhysics(label: String, r: SimResult, ops: IndexedSeq[OperatorSpec],
                  cluster: ClusterSpec, upstreamExecutors: Int): Seq[String] = {
    val statePerShard = ops.map(o => o.name -> o.statePerShardBytes).toMap
    val out = mutable.ArrayBuffer.empty[String]
    for (m <- r.moves) {
      val where = f"$label: ${if (m.interNode) "inter" else "intra"}-node move of ${m.op} at ${m.timeSec}%.3f s"
      if (m.interNode) {
        if (m.bytes != statePerShard(m.op))
          out += s"$where carried ${m.bytes} bytes, not the shard's ${statePerShard(m.op)}"
        val expected = cluster.networkLatencySec + m.bytes / cluster.networkBytesPerSec
        if (math.abs(m.migrateSec - expected) > 1e-9)
          out += s"$where migrated in ${m.migrateSec} s, not $expected s"
      } else if (m.bytes != 0.0 || m.migrateSec != 0.0)
        out += s"$where carried ${m.bytes} bytes in ${m.migrateSec} s"
      if (m.syncSec < cluster.shardSyncOverheadSec - 1e-12)
        out += s"$where synchronised in ${m.syncSec} s, under the ${cluster.shardSyncOverheadSec} s overhead"
    }
    val routing = 2 * cluster.controlRttSec * upstreamExecutors
    for (p <- r.repartitions) {
      val where = f"$label: repartition of ${p.op} at ${p.timeSec}%.3f s"
      if (math.abs(p.routingSec - routing) > 1e-9)
        out += s"$where updated routing in ${p.routingSec} s, not $routing s"
      if (p.syncSec < cluster.shardSyncOverheadSec - 1e-12)
        out += s"$where synchronised in ${p.syncSec} s, under the ${cluster.shardSyncOverheadSec} s overhead"
    }
    out.toSeq
  }

  /** Table 2: naive-EC migrates more state and moves more remote data. */
  def table2Order(naive: SimResult, elasticutor: SimResult): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    if (!(naive.migrationRateBytesPerSec > elasticutor.migrationRateBytesPerSec))
      out += s"Table 2: naive-EC migration ${naive.migrationRateBytesPerSec} B/s does not exceed " +
        s"Elasticutor's ${elasticutor.migrationRateBytesPerSec} B/s"
    if (!(naive.remoteRateBytesPerSec > elasticutor.remoteRateBytesPerSec))
      out += s"Table 2: naive-EC remote transfer ${naive.remoteRateBytesPerSec} B/s does not exceed " +
        s"Elasticutor's ${elasticutor.remoteRateBytesPerSec} B/s"
    out.toSeq
  }

  /** Fig. 6, keyed by `approach@omega` labels: RC and Elasticutor complete
    * the offered rate at ω = 0 (within 1%), Elasticutor's latency at ω = 16
    * is below RC's, and no mean latency is below one service time.
    */
  def fig6Shape(byLabel: Map[String, SimResult], offeredRate: Double, serviceSec: Double): Seq[String] = {
    val out = mutable.ArrayBuffer.empty[String]
    for (a <- Seq("RC", "Elasticutor")) {
      val thr = byLabel(s"$a@0").throughput
      if (math.abs(thr - offeredRate) > 0.01 * offeredRate)
        out += f"Fig. 6: $a completes $thr%.1f t/s at ω = 0, not the offered $offeredRate%.1f t/s"
    }
    val ec = byLabel("Elasticutor@16").meanLatencySec
    val rc = byLabel("RC@16").meanLatencySec
    if (!(ec < rc)) out += s"Fig. 6: Elasticutor latency $ec s at ω = 16 is not below RC's $rc s"
    for ((label, r) <- byLabel.toSeq.sortBy(_._1) if r.meanLatencySec < serviceSec)
      out += s"Fig. 6: $label mean latency ${r.meanLatencySec} s is below the $serviceSec s service time"
    out.toSeq
  }

  /** Every simulated number of a result, for bit-identity across passes. */
  def fingerprint(r: SimResult): Array[Double] = {
    val b = mutable.ArrayBuilder.make[Double]
    for (s <- r.perSecond)
      b ++= Seq(s.sec.toDouble, s.throughput, s.meanLatencySec, s.migrationBytes, s.remoteBytes,
        s.backpressured, s.offered)
    for (m <- r.moves)
      b ++= Seq(m.timeSec, if (m.interNode) 1.0 else 0.0, m.syncSec, m.migrateSec, m.bytes)
    for (p <- r.repartitions)
      b ++= Seq(p.timeSec, p.shardsMoved.toDouble, p.pauseSec, p.drainSec, p.routingSec,
        p.migrateSec, p.bytes)
    b ++= Seq(r.schedulerMillis.length.toDouble, r.entryStats.tuples, r.entryStats.latencySum,
      r.p99LatencySec, r.allOpsLatencySum, r.totalMigrationBytes, r.totalRemoteBytes, r.measuredSec)
    b.result()
  }

  /** Bit-identity of two passes' results of the same run. */
  def identical(label: String, first: SimResult, again: SimResult): Seq[String] =
    if (java.util.Arrays.equals(fingerprint(first), fingerprint(again))) Nil
    else Seq(s"$label: a repeated pass gave different simulated outputs")
}
