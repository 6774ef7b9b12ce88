package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.experiments.Experiments
import repro.sim._

/** With the default seeds (SSE 2019, micro-benchmark 42) the benchmark's
  * configurations give the same rows as `Experiments`, and every check
  * holds on them.
  */
class ScenariosSpec extends AnyFunSuite {

  private def runAll(s: Scenario, seed: Long): (IndexedSeq[SimOp], IndexedSeq[SimResult]) = {
    val ops = s.ops(seed)
    val results = ops.map(op => new StreamSimulator(op.config, op.workload()).run())
    val violations = ops.zip(results).flatMap { case (op, r) => Checks.run(op.label, op.config, op.workload(), r) } ++
      s.passChecks(ops, results)
    assert(violations.isEmpty, violations.mkString("\n"))
    (ops, results)
  }

  test("sse-table2 gives Experiments.table2's rows") {
    val (ops, results) = runAll(Scenarios.Table2, 2019)
    val rows = ops.zip(results).map { case (op, r) =>
      Experiments.Table2Row(op.label, r.migrationRateBytesPerSec / 1e6, r.remoteRateBytesPerSec / 1e6,
        r.throughput, r.meanLatencySec)
    }
    assert(rows == Experiments.table2())
  }

  test("micro-fig6 gives Experiments.fig6Point's rows") {
    val (ops, results) = runAll(Scenarios.Fig6, 42)
    val expected = for (a <- Experiments.fig6Approaches; o <- Scenarios.Fig6.omegas)
      yield Experiments.fig6Point(a, o)
    assert(results.map(r => (r.throughput, r.meanLatencySec)) == expected.map(e => (e.throughput, e.meanLatencySec)))
    assert(ops.map(_.label) == expected.map(e => f"${e.approach}@${e.omega}%.0f"))
  }

  test("the tracing decorator leaves simulated outputs bit-identical") {
    val op = Scenarios.Fig6.ops(7).find(_.label == "Elasticutor@16").get
    val cfg = op.config.copy(durationSec = 10.0)
    val plain = new StreamSimulator(cfg, op.workload()).run()
    val traced = new TracingWorkload(op.workload())
    val r = new StreamSimulator(cfg, traced).run()
    assert(Checks.identical("traced", plain, r).isEmpty)
    assert(traced.advanceCalls == 10000 && traced.distributionChanges == 2)
    assert(traced.shardWeightsCalls > 0 && traced.externalRateCalls > 0)
  }

  test("the replay checks every decision it times") {
    val replay = new Replay
    Scenarios.Table2.ops(3).foreach(replay.run)
    assert(replay.violations.isEmpty, replay.violations.take(5).mkString("\n"))
    assert(replay.allocateMs.length == 80 && replay.assignMs.length == 80 && replay.naiveAssignMs.length == 40)
    assert(replay.balancerCalls > 0)
  }
}
