package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments
import repro.sim._
import repro.sse.SSEWorkload

/** Each output check accepts a consistent hand-made result and rejects a
  * hand-made wrong one.
  */
class ChecksSpec extends AnyFunSuite {

  private val cluster = Experiments.paperCluster(2)
  private val sse = new SSEWorkload(offeredRate = 1000.0)

  private def result(tuplesPerSec: Double = 1000.0, latencySec: Double = 0.002,
                     offeredPerSec: Double = 1000.0, moves: IndexedSeq[MoveRecord] = IndexedSeq.empty,
                     reparts: IndexedSeq[RepartitionRecord] = IndexedSeq.empty,
                     migrationBytes: Double = 0.0, remoteBytes: Double = 0.0): SimResult = {
    val seconds = 10
    val perSecond = IndexedSeq.tabulate(seconds)(s =>
      SecondMetric(s + 1, tuplesPerSec, latencySec, 0.0, 0.0, 0.0, offeredPerSec))
    val stats = new CompletionStats
    stats.record(tuplesPerSec * seconds, latencySec)
    new SimResult(perSecond, moves, reparts, IndexedSeq.empty, stats,
      tuplesPerSec * seconds * latencySec, migrationBytes, remoteBytes, seconds.toDouble)
  }

  private val interMove = MoveRecord(1.0, "transactor", interNode = true, syncSec = 0.003,
    migrateSec = cluster.networkLatencySec + 64.0 * 1024 / cluster.networkBytesPerSec, bytes = 64.0 * 1024)
  private val intraMove = MoveRecord(2.0, "vwap", interNode = false, 0.003, 0.0, 0.0)
  private val repart = RepartitionRecord(3.0, "transactor", 4, 0.005, 0.001,
    routingSec = 2 * cluster.controlRttSec * 32, migrateSec = 0.01, bytes = 0.0)

  test("per-order CPU cost sums operator costs times selectivities") {
    assert(math.abs(Checks.cpuSecPerEntryTuple(sse.operators, sse.throughputOp) -
      Experiments.ssePipelineCostSec) < 1e-15)
  }

  test("conservation rejects more completions than offers") {
    assert(Checks.conservation("ok", result()).isEmpty)
    assert(Checks.conservation("bad", result(tuplesPerSec = 1000.5)).nonEmpty)
  }

  test("capacity rejects throughput beyond the cluster's cores") {
    val cores = cluster.totalCores / Experiments.ssePipelineCostSec
    assert(Checks.capacity("ok", result(cores * 0.99), sse.operators, "transactor", cluster).isEmpty)
    assert(Checks.capacity("bad", result(cores * 1.01), sse.operators, "transactor", cluster).nonEmpty)
  }

  test("move physics accepts consistent moves and repartitions") {
    val r = result(moves = IndexedSeq(interMove, intraMove), reparts = IndexedSeq(repart))
    assert(Checks.movePhysics("ok", r, sse.operators, cluster, 32).isEmpty)
  }

  test("move physics rejects each wrong move") {
    val wrong = Seq(
      intraMove.copy(bytes = 16.0 * 1024),
      intraMove.copy(migrateSec = 1e-3),
      interMove.copy(bytes = 16.0 * 1024),
      interMove.copy(migrateSec = interMove.migrateSec * 2),
      interMove.copy(syncSec = 0.0019))
    for (m <- wrong)
      assert(Checks.movePhysics("bad", result(moves = IndexedSeq(m)), sse.operators, cluster, 32).nonEmpty, m)
  }

  test("move physics rejects a wrong RC routing time or short sync") {
    for (p <- Seq(repart.copy(routingSec = repart.routingSec + 0.005),
                  repart.copy(pauseSec = 0.0, drainSec = 0.0, routingSec = 0.001)))
      assert(Checks.movePhysics("bad", result(reparts = IndexedSeq(p)), sse.operators, cluster, 32).nonEmpty, p)
  }

  test("Table 2 order rejects naive-EC at or below Elasticutor") {
    val naive = result(migrationBytes = 3e8, remoteBytes = 3e9)
    val ec = result(migrationBytes = 1e7, remoteBytes = 1e8)
    assert(Checks.table2Order(naive, ec).isEmpty)
    assert(Checks.table2Order(ec, naive).length == 2)
    assert(Checks.table2Order(naive, result(migrationBytes = 3e8, remoteBytes = 1e8)).length == 1)
  }

  test("Fig. 6 shape rejects each wrong point") {
    val offered = 46080.0
    def points(rc0: Double = offered, ec0: Double = offered, rc16Lat: Double = 0.2,
               ec16Lat: Double = 0.003, staticLat: Double = 0.1) = Map(
      "static@0" -> result(offered, staticLat, offered), "static@16" -> result(offered, staticLat, offered),
      "RC@0" -> result(rc0, 0.002, offered), "RC@16" -> result(offered, rc16Lat, offered),
      "Elasticutor@0" -> result(ec0, 0.002, offered), "Elasticutor@16" -> result(offered, ec16Lat, offered))
    assert(Checks.fig6Shape(points(), offered, 1e-3).isEmpty)
    assert(Checks.fig6Shape(points(rc0 = offered * 0.98), offered, 1e-3).nonEmpty)
    assert(Checks.fig6Shape(points(ec0 = offered * 0.98), offered, 1e-3).nonEmpty)
    assert(Checks.fig6Shape(points(ec16Lat = 0.2), offered, 1e-3).nonEmpty)
    assert(Checks.fig6Shape(points(staticLat = 0.5e-3), offered, 1e-3).length == 2)
  }

  test("bit-identity rejects a result that differs in one number") {
    assert(Checks.identical("same", result(), result()).isEmpty)
    assert(Checks.identical("differs", result(), result(remoteBytes = 1.0)).nonEmpty)
    assert(Checks.identical("differs", result(), result(moves = IndexedSeq(intraMove))).nonEmpty)
  }
}
